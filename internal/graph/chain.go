package graph

import "fmt"

// ChainWalker finds recompute chains: the forward operators that must
// re-execute to rebuild an evicted tensor. It is the one chain walker
// every layer shares — the planner's scoring, FinalizeWindows, the
// graph rewrite, the simulator and the real-float executor — so they
// all agree on chain order and on which chains fail.
//
// A walk allocates nothing once the walker has grown to the graph: the
// visited set is an array stamped with a per-walk epoch and indexed by
// op ID, and the chain is appended to a caller-supplied buffer. Walks
// may nest (the simulator executes a chain whose inputs may need their
// own regeneration) as long as each keeps its own buffer. The zero
// value is ready to use; a walker is not safe for concurrent use.
type ChainWalker struct {
	seen  []uint32 // seen[op.ID] == epoch: op already in this walk
	epoch uint32
	stack []chainFrame
	count int

	// The last walk's bounds and failure, for Err.
	target, source *Tensor
	maxLen         int
	failed         bool
}

// chainFrame is one DFS stack frame: an op being expanded and the
// index of its next input to examine.
type chainFrame struct {
	op   *Op
	next int
}

// Walk appends to dst the operators that must re-execute to rebuild t,
// in execution order, walking producers depth-first in input order
// until every leaf input satisfies avail. It reports false — with dst
// truncated back to its original length — when a needed tensor has no
// producer or the chain would exceed maxLen distinct ops; Err then
// describes the failure.
func (w *ChainWalker) Walk(dst []*Op, t *Tensor, avail func(*Tensor) bool, maxLen int) ([]*Op, bool) {
	w.epoch++
	if w.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(w.seen)
		w.epoch = 1
	}
	w.stack = w.stack[:0]
	w.count = 0
	w.target, w.source, w.maxLen, w.failed = t, nil, maxLen, false
	base := len(dst)
	if !w.enter(t) {
		return dst[:base], false
	}
	for len(w.stack) > 0 {
		f := &w.stack[len(w.stack)-1]
		if f.next < len(f.op.Inputs) {
			in := f.op.Inputs[f.next]
			f.next++
			if !avail(in) && !w.enter(in) {
				clear(dst[base:])
				return dst[:base], false
			}
			continue
		}
		dst = append(dst, f.op)
		w.stack = w.stack[:len(w.stack)-1]
	}
	return dst, true
}

// enter queues the producer of x for expansion unless this walk already
// holds it. It reports false, recording the failure, when x has no
// producer or the chain outgrows maxLen.
func (w *ChainWalker) enter(x *Tensor) bool {
	p := x.Producer
	if p == nil {
		w.source, w.failed = x, true
		return false
	}
	if p.ID >= len(w.seen) {
		w.seen = append(w.seen, make([]uint32, p.ID+1-len(w.seen))...)
	}
	if w.seen[p.ID] == w.epoch {
		return true
	}
	w.seen[p.ID] = w.epoch
	w.count++
	if w.count > w.maxLen {
		w.failed = true
		return false
	}
	w.stack = append(w.stack, chainFrame{op: p})
	return true
}

// Err describes why the last Walk failed, or is nil when it succeeded.
// The error is built on demand, so failed walks whose callers only need
// the verdict stay allocation-free. The messages keep the "core:"
// wording that simulator, rewrite and executor errors have always
// quoted.
func (w *ChainWalker) Err() error {
	switch {
	case !w.failed:
		return nil
	case w.source != nil:
		return fmt.Errorf("core: recompute source %s has no producer and is not available", w.source.Name)
	default:
		return fmt.Errorf("core: recompute chain for %s exceeds %d ops", w.target.Name, w.maxLen)
	}
}
