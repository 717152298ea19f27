package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/tensor"
	"tsplit/internal/workload"
)

// This file keeps the map-keyed schedule, liveness and recompute-chain
// implementations as test-only oracles, and checks the dense-ID
// implementations against them on every zoo model and on randomized
// graphs.

// mapSchedule is the map-keyed depth-first scheduler.
func mapSchedule(g *graph.Graph) ([]*graph.Op, map[*graph.Op]int, error) {
	refcnt := make(map[*graph.Op]int, len(g.Ops))
	dependents := make(map[*graph.Op][]*graph.Op, len(g.Ops))
	for _, op := range g.Ops {
		n := 0
		seen := make(map[*graph.Op]bool)
		for _, in := range op.Inputs {
			if p := in.Producer; p != nil && !seen[p] {
				seen[p] = true
				n++
				dependents[p] = append(dependents[p], op)
			}
		}
		for _, dep := range op.ControlDeps {
			if !seen[dep] {
				seen[dep] = true
				n++
				dependents[dep] = append(dependents[dep], op)
			}
		}
		refcnt[op] = n
	}
	var order []*graph.Op
	index := make(map[*graph.Op]int, len(g.Ops))
	var visit func(op *graph.Op)
	visit = func(op *graph.Op) {
		index[op] = len(order)
		order = append(order, op)
		for _, next := range dependents[op] {
			refcnt[next]--
			if refcnt[next] == 0 {
				visit(next)
			}
		}
	}
	for _, op := range g.Ops {
		if refcnt[op] == 0 {
			if _, done := index[op]; !done {
				visit(op)
			}
		}
	}
	if len(order) != len(g.Ops) {
		return nil, nil, fmt.Errorf("graph: schedule covered %d of %d ops (cycle via control deps?)", len(order), len(g.Ops))
	}
	return order, index, nil
}

// mapLiveness is the map-keyed liveness analysis.
type mapLiveness struct {
	firstUse, lastUse map[*graph.Tensor]int
	memAt             []int64
	peak              int64
	peakIdx           int
	resident          int64
}

func analyzeMapLiveness(g *graph.Graph, order []*graph.Op, index map[*graph.Op]int) *mapLiveness {
	n := len(order)
	lv := &mapLiveness{
		firstUse: make(map[*graph.Tensor]int, len(g.Tensors)),
		lastUse:  make(map[*graph.Tensor]int, len(g.Tensors)),
		memAt:    make([]int64, n),
	}
	delta := make([]int64, n+1)
	for _, t := range g.Tensors {
		first := -1
		if t.Producer != nil {
			first = index[t.Producer]
		}
		last := first
		if first == -1 {
			last = n - 1
		}
		for _, c := range t.Consumers {
			if i := index[c]; i > last {
				last = i
			}
		}
		lv.firstUse[t] = first
		lv.lastUse[t] = last
		if first == -1 {
			lv.resident += t.Bytes()
			continue
		}
		delta[first] += t.Bytes()
		delta[last+1] -= t.Bytes()
	}
	run := lv.resident
	for i := 0; i < n; i++ {
		run += delta[i]
		lv.memAt[i] = run + order[i].Workspace
		if lv.memAt[i] > lv.peak {
			lv.peak = lv.memAt[i]
			lv.peakIdx = i
		}
	}
	return lv
}

// mapRecomputeChain is the recursive, map-visited chain walk.
func mapRecomputeChain(t *graph.Tensor, avail func(*graph.Tensor) bool, maxLen int) ([]*graph.Op, error) {
	var chain []*graph.Op
	visited := make(map[*graph.Op]bool)
	var walk func(x *graph.Tensor) error
	walk = func(x *graph.Tensor) error {
		p := x.Producer
		if p == nil {
			return fmt.Errorf("core: recompute source %s has no producer and is not available", x.Name)
		}
		if visited[p] {
			return nil
		}
		visited[p] = true
		if len(visited) > maxLen {
			return fmt.Errorf("core: recompute chain for %s exceeds %d ops", t.Name, maxLen)
		}
		for _, in := range p.Inputs {
			if avail(in) {
				continue
			}
			if err := walk(in); err != nil {
				return err
			}
		}
		chain = append(chain, p)
		return nil
	}
	if err := walk(t); err != nil {
		return nil, err
	}
	return chain, nil
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// oracleGraphs returns every zoo model at a small batch plus a spread
// of randomized graphs.
func oracleGraphs(t *testing.T) []namedGraph {
	t.Helper()
	var gs []namedGraph
	for _, name := range models.Names() {
		g, err := models.Build(name, models.Config{BatchSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, namedGraph{name, g})
	}
	for seed := uint64(1); seed <= 40; seed++ {
		gs = append(gs, namedGraph{fmt.Sprintf("rand%d", seed), workload.RandGraph(seed)})
	}
	return gs
}

func TestDenseScheduleAndLivenessMatchMapOracle(t *testing.T) {
	for _, ng := range oracleGraphs(t) {
		name, g := ng.name, ng.g
		s, err := graph.BuildSchedule(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		order, index, err := mapSchedule(g)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !slices.Equal(s.Ops, order) {
			t.Fatalf("%s: schedule order differs from the oracle", name)
		}
		for _, op := range g.Ops {
			if s.Pos[op.ID] != index[op] {
				t.Fatalf("%s: Pos[%s] = %d, oracle %d", name, op.Name, s.Pos[op.ID], index[op])
			}
		}
		lv := graph.AnalyzeLiveness(g, s)
		want := analyzeMapLiveness(g, order, index)
		for _, tn := range g.Tensors {
			if lv.FirstUse[tn.ID] != want.firstUse[tn] || lv.LastUse[tn.ID] != want.lastUse[tn] {
				t.Fatalf("%s: %s lives [%d,%d], oracle [%d,%d]", name, tn.Name,
					lv.FirstUse[tn.ID], lv.LastUse[tn.ID], want.firstUse[tn], want.lastUse[tn])
			}
		}
		if !slices.Equal(lv.MemAt, want.memAt) || lv.Peak != want.peak || lv.PeakIdx != want.peakIdx || lv.Resident != want.resident {
			t.Fatalf("%s: memory curve differs from the oracle (peak %d@%d vs %d@%d, resident %d vs %d)",
				name, lv.Peak, lv.PeakIdx, want.peak, want.peakIdx, lv.Resident, want.resident)
		}
	}
}

func TestChainWalkerMatchesMapOracle(t *testing.T) {
	var w graph.ChainWalker // one walker across every graph, as the pooled simulator uses it
	var buf []*graph.Op
	walks, failures := 0, 0
	for _, ng := range oracleGraphs(t) {
		name, g := ng.name, ng.g
		rng := rand.New(rand.NewSource(int64(len(g.Ops))))
		for _, keep := range []float64{0.3, 0.7, 0.95} {
			// Random availability: each tensor is available with
			// probability keep; tensors without a producer only
			// sometimes, so both failure kinds occur.
			avail := make([]bool, len(g.Tensors))
			for i := range avail {
				avail[i] = rng.Float64() < keep
			}
			pred := func(x *graph.Tensor) bool { return avail[x.ID] }
			for _, maxLen := range []int{3, 24, len(g.Ops)} {
				for k := 0; k < 60; k++ {
					x := g.Tensors[rng.Intn(len(g.Tensors))]
					want, wantErr := mapRecomputeChain(x, pred, maxLen)
					var ok bool
					buf, ok = w.Walk(buf[:0], x, pred, maxLen)
					walks++
					if wantErr != nil {
						failures++
						if ok {
							t.Fatalf("%s: walk of %s succeeded, oracle failed: %v", name, x.Name, wantErr)
						}
						if got := w.Err(); got == nil || got.Error() != wantErr.Error() {
							t.Fatalf("%s: walk of %s: error %v, oracle %v", name, x.Name, got, wantErr)
						}
						continue
					}
					if !ok {
						t.Fatalf("%s: walk of %s failed (%v), oracle succeeded", name, x.Name, w.Err())
					}
					if !slices.Equal(buf, want) {
						t.Fatalf("%s: chain of %s differs from the oracle:\n got %v\nwant %v", name, x.Name, buf, want)
					}
				}
			}
		}
	}
	if failures == 0 || failures == walks {
		t.Fatalf("%d of %d walks failed: the predicates do not exercise both outcomes", failures, walks)
	}
}

func TestBuildScheduleRejectsNonDenseIDs(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New()
		x := g.Input("x", tensor.NewShape(2, 4), tensor.Float32)
		g.ReLU("b", g.ReLU("a", x))
		return g
	}
	other := build()
	cases := []struct {
		name    string
		corrupt func(g *graph.Graph)
		want    string
	}{
		{"duplicate op ID", func(g *graph.Graph) { g.Ops[1].ID = 0 }, "op b has ID 0 at index 1"},
		{"op ID past the end", func(g *graph.Graph) { g.Ops[0].ID = 7 }, "op a has ID 7 at index 0"},
		{"swapped tensor IDs", func(g *graph.Graph) { g.Tensors[0].ID, g.Tensors[1].ID = 1, 0 }, "tensor x has ID 1 at index 0"},
		{"foreign input", func(g *graph.Graph) { g.Ops[1].Inputs[0] = other.Tensors[1] }, "op b reads tensor a.y, which is not in the graph"},
		{"foreign consumer", func(g *graph.Graph) {
			g.Tensors[0].Consumers = append(g.Tensors[0].Consumers, other.Ops[0])
		}, "tensor x is consumed by op a, which is not in the graph"},
		{"foreign control dep", func(g *graph.Graph) {
			g.Ops[1].ControlDeps = append(g.Ops[1].ControlDeps, other.Ops[0])
		}, "op b waits on op a, which is not in the graph"},
	}
	for _, tc := range cases {
		g := build()
		tc.corrupt(g)
		s, err := graph.BuildSchedule(g)
		if err == nil || s != nil {
			t.Fatalf("%s: BuildSchedule accepted the graph", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q, want it to mention %q", tc.name, err, tc.want)
		}
	}
}
