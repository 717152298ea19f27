package graph

import (
	"fmt"
)

// Schedule is a total execution order over a graph's operators, built
// by the depth-first scheduler of the paper's Algorithm 1. Tensors are
// allocated at the start of their producer and freed after their last
// scheduled consumer (paper Sec. IV-A).
type Schedule struct {
	Ops []*Op
	// Pos[op.ID] is op's position in Ops. Op IDs are dense (an op's ID
	// is its index in the graph's Ops), so every per-op lookup is an
	// array read.
	Pos []int
}

// BuildSchedule topologically orders the graph in the depth-first
// manner of Algorithm 1: each operator is pushed as soon as its last
// dependency retires, and its successors are explored depth-first in
// creation order. The result is deterministic for a given graph.
//
// The graph must have dense IDs — every op's ID is its index in Ops,
// every tensor's its index in Tensors, and no edge leaves the graph —
// as the builders assign them; a hand-assembled graph that breaks this
// gets an error, as does a control-dependency cycle.
func BuildSchedule(g *Graph) (*Schedule, error) {
	if err := checkDense(g); err != nil {
		return nil, err
	}
	n := len(g.Ops)
	// Each op's distinct dependencies (data-input producers, then
	// control deps) in one flat array: op i waits on
	// deps[depOff[i]:depOff[i+1]]. mark[p] == i+1 dedupes op i's list.
	mark := make([]int32, n)
	depOff := make([]int32, n+1)
	edges := 0
	for _, op := range g.Ops {
		edges += len(op.Inputs) + len(op.ControlDeps)
	}
	deps := make([]int32, edges) // trimmed to the distinct count below
	nd := int32(0)
	for i, op := range g.Ops {
		stamp := int32(i + 1)
		for _, in := range op.Inputs {
			if p := in.Producer; p != nil && mark[p.ID] != stamp {
				mark[p.ID] = stamp
				deps[nd] = int32(p.ID)
				nd++
			}
		}
		for _, dep := range op.ControlDeps {
			if mark[dep.ID] != stamp {
				mark[dep.ID] = stamp
				deps[nd] = int32(dep.ID)
				nd++
			}
		}
		depOff[i+1] = nd
	}
	deps = deps[:nd]
	// Invert into the CSR dependents array: the ops waiting on p are
	// next[nextOff[p]:nextOff[p+1]], in creation order (the fill walks
	// waiting ops in ID order).
	nextOff := make([]int32, n+1)
	for _, p := range deps {
		nextOff[p+1]++
	}
	for i := 0; i < n; i++ {
		nextOff[i+1] += nextOff[i]
	}
	next := make([]int32, len(deps))
	fill := make([]int32, n)
	copy(fill, nextOff[:n])
	pending := mark // dependency refcounts; mark is no longer needed
	for i := 0; i < n; i++ {
		for _, p := range deps[depOff[i]:depOff[i+1]] {
			next[fill[p]] = int32(i)
			fill[p]++
		}
		pending[i] = depOff[i+1] - depOff[i]
	}

	s := &Schedule{Ops: make([]*Op, 0, n), Pos: make([]int, n)}
	for i := range s.Pos {
		s.Pos[i] = -1
	}
	// Iterative depth-first visit: a frame is an emitted op and the
	// cursor of its next dependent to retire.
	type frame struct{ op, k int32 }
	var stack []frame
	emit := func(i int32) {
		s.Pos[i] = len(s.Ops)
		s.Ops = append(s.Ops, g.Ops[i])
		stack = append(stack, frame{i, nextOff[i]})
	}
	for i := 0; i < n; i++ {
		if pending[i] != 0 || s.Pos[i] >= 0 {
			continue
		}
		emit(int32(i))
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.k == nextOff[f.op+1] {
				stack = stack[:len(stack)-1]
				continue
			}
			d := next[f.k]
			f.k++
			pending[d]--
			if pending[d] == 0 {
				emit(d)
			}
		}
	}
	if len(s.Ops) != n {
		return nil, fmt.Errorf("graph: schedule covered %d of %d ops (cycle via control deps?)", len(s.Ops), n)
	}
	return s, nil
}

// checkDense reports the first break of the dense-ID layout that the
// schedule and liveness index by.
func checkDense(g *Graph) error {
	for i, op := range g.Ops {
		if op.ID != i {
			return fmt.Errorf("graph: op %s has ID %d at index %d of Ops (IDs must be dense)", op.Name, op.ID, i)
		}
	}
	for i, t := range g.Tensors {
		if t.ID != i {
			return fmt.Errorf("graph: tensor %s has ID %d at index %d of Tensors (IDs must be dense)", t.Name, t.ID, i)
		}
		if p := t.Producer; p != nil && !g.HasOp(p) {
			return fmt.Errorf("graph: tensor %s is produced by op %s, which is not in the graph", t.Name, p.Name)
		}
		for _, c := range t.Consumers {
			if !g.HasOp(c) {
				return fmt.Errorf("graph: tensor %s is consumed by op %s, which is not in the graph", t.Name, c.Name)
			}
		}
	}
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			if !g.HasTensor(in) {
				return fmt.Errorf("graph: op %s reads tensor %s, which is not in the graph", op.Name, in.Name)
			}
		}
		for _, out := range op.Outputs {
			if !g.HasTensor(out) {
				return fmt.Errorf("graph: op %s writes tensor %s, which is not in the graph", op.Name, out.Name)
			}
		}
		for _, dep := range op.ControlDeps {
			if !g.HasOp(dep) {
				return fmt.Errorf("graph: op %s waits on op %s, which is not in the graph", op.Name, dep.Name)
			}
		}
	}
	return nil
}

// HasOp reports whether op is the op g holds at op.ID.
func (g *Graph) HasOp(op *Op) bool {
	return op.ID >= 0 && op.ID < len(g.Ops) && g.Ops[op.ID] == op
}

// HasTensor reports whether t is the tensor g holds at t.ID.
func (g *Graph) HasTensor(t *Tensor) bool {
	return t.ID >= 0 && t.ID < len(g.Tensors) && g.Tensors[t.ID] == t
}

// Liveness is the per-operation memory requirement of a schedule under
// the default (no memory optimization) execution model: every tensor
// resides on device from its producer to its last consumer, and
// parameters, optimizer state and staged inputs reside for the whole
// iteration.
type Liveness struct {
	Sched *Schedule
	// FirstUse[t.ID] is the schedule index at which tensor t is
	// allocated (its producer), or -1 for tensors resident from the
	// start.
	FirstUse []int
	// LastUse[t.ID] is the schedule index of t's final consumer; for
	// resident tensors it is the final operation.
	LastUse []int
	// MemAt[i] is the device memory (bytes) required while executing
	// schedule op i, including op i's workspace.
	MemAt []int64
	// Peak is the maximum of MemAt and PeakIdx its schedule position.
	Peak    int64
	PeakIdx int
	// Resident is the always-on-device footprint (params, opt state,
	// staged inputs).
	Resident int64
}

// AnalyzeLiveness computes tensor lifetimes and the memory-requirement
// curve M_i of paper Sec. IV-A for the given schedule.
func AnalyzeLiveness(g *Graph, s *Schedule) *Liveness {
	n := len(s.Ops)
	lv := &Liveness{
		Sched:    s,
		FirstUse: make([]int, len(g.Tensors)),
		LastUse:  make([]int, len(g.Tensors)),
		MemAt:    make([]int64, n),
	}
	// delta[i] accumulates alloc(+)/free(-) transitions at op i.
	delta := make([]int64, n+1)
	for _, t := range g.Tensors {
		first := -1
		if t.Producer != nil {
			first = s.Pos[t.Producer.ID]
		}
		last := first
		if first == -1 {
			last = n - 1
		}
		for _, c := range t.Consumers {
			if i := s.Pos[c.ID]; i > last {
				last = i
			}
		}
		lv.FirstUse[t.ID] = first
		lv.LastUse[t.ID] = last
		if first == -1 {
			lv.Resident += t.Bytes()
			continue
		}
		delta[first] += t.Bytes()
		delta[last+1] -= t.Bytes()
	}
	run := lv.Resident
	for i := 0; i < n; i++ {
		run += delta[i]
		lv.MemAt[i] = run + s.Ops[i].Workspace
		if lv.MemAt[i] > lv.Peak {
			lv.Peak = lv.MemAt[i]
			lv.PeakIdx = i
		}
	}
	return lv
}

// LiveAt reports whether t occupies device memory while op index i
// executes.
func (lv *Liveness) LiveAt(t *Tensor, i int) bool {
	first := lv.FirstUse[t.ID]
	if first == -1 {
		return true
	}
	return first <= i && i <= lv.LastUse[t.ID]
}
