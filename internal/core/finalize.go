package core

import (
	"sort"

	"tsplit/internal/graph"
	"tsplit/internal/profiler"
)

// FinalizeWindows fills in the eviction/restore/prefetch schedule
// positions for every planned tensor whose producer only chose a
// memory option — the baseline planners (vDNN, Checkpoints,
// SuperNeurons, the offload baselines) decide *what* to evict by
// static rules, and this shared pass derives *when*, using the same
// occupancy simulation as TSPLIT's planner so the comparison is about
// policy, not plumbing.
//
// The eviction window is the largest gap between consecutive uses of
// the tensor in the schedule — for feature maps that is exactly the
// forward-to-backward gap the out-of-core literature exploits.
func FinalizeWindows(g *graph.Graph, sched *graph.Schedule, lv *graph.Liveness, prof *profiler.Profile, plan *Plan) {
	occ := profiler.NewOccupancy(prof)

	ids := make([]int, 0, len(plan.Tensors))
	for id := range plan.Tensors {
		ids = append(ids, id)
	}
	// Process in production order so swap-out bandwidth is booked in
	// the order the runtime will issue the copies. Sort by ID first and
	// keep the production-order sort stable: multi-output ops produce
	// several tensors at the same FirstUse, and an unstable sort over
	// map-ordered input would book their bandwidth in a different order
	// each run.
	sort.Ints(ids)
	sort.SliceStable(ids, func(a, b int) bool {
		ta, tb := plan.Tensors[ids[a]].Tensor, plan.Tensors[ids[b]].Tensor
		return lv.FirstUse[ta.ID] < lv.FirstUse[tb.ID]
	})

	var points []int
	for _, id := range ids {
		tp := plan.Tensors[id]
		t := tp.Tensor
		prod := lv.FirstUse[t.ID]
		if prod < 0 {
			prod = 0
		}
		points = appendUses(append(points[:0], prod), t, sched)

		evictAt, restoreAt, gap := -1, -1, 0
		for k := 0; k+1 < len(points); k++ {
			if g := points[k+1] - points[k]; g > gap {
				gap = g
				evictAt, restoreAt = points[k], points[k+1]
			}
		}
		if restoreAt == -1 || gap < 2 {
			// No gap worth evicting across: drop the decision.
			delete(plan.Tensors, id)
			continue
		}
		tp.EvictAt = evictAt
		tp.RestoreAt = restoreAt
		tp.PrefetchAt = restoreAt
		if tp.Opt == Swap {
			transfer := prof.TransferTime(t.Bytes())
			occ.Reserve(transfer, evictAt+1, restoreAt-1)
			start, leftover := occ.ReserveBack(transfer, evictAt+1, restoreAt-1)
			if leftover > 0 {
				start = prof.WindowStart(restoreAt, transfer)
				if start <= evictAt {
					start = evictAt + 1
				}
			}
			tp.PrefetchAt = start
		}
		plan.Tensors[id] = tp
	}

	// Derive recompute-chain transients against the finalized plan. The
	// runtime holds a regeneration's intermediates until the whole chain
	// has re-executed, so the memory curve must charge their sum (plus
	// the widest chain workspace) at the restoring consumer — without
	// this the curve under-predicts deep-chain policies (sqrt(N)
	// checkpointing) by the size of a whole segment. Availability is
	// judged at the consumer's schedule position: a chain source is only
	// on device there if it has not been dropped by its own eviction
	// window (recompute decisions) or refcount-freed after its last
	// scheduled use — by late backward, residuals force chains across
	// whole stages. An op's restorations run sequentially and each
	// chain's intermediates are retired before the next starts, so the
	// per-index charge is the maximum over that op's chains, recorded in
	// plan.ChainTransients. (The TSPLIT planner instead maintains
	// per-tensor ChainBytes estimates for the shallow chains it creates.)
	var chainT []int64
	var walker graph.ChainWalker
	var chain []*graph.Op
	// recEvict[x.ID]-1 is the eviction index of a recompute decision on
	// x (0: x is not recomputed), so the walks' predicate reads no map.
	recEvict := make([]int, len(g.Tensors))
	for _, id := range ids {
		if tp, ok := plan.Tensors[id]; ok && tp.Opt == Recompute {
			recEvict[id] = tp.EvictAt + 1
		}
	}
	for _, id := range ids {
		tp, ok := plan.Tensors[id]
		if !ok || tp.Opt != Recompute || tp.ChainBytes > 0 {
			continue
		}
		for _, c := range tp.Tensor.Consumers {
			u := sched.Pos[c.ID]
			if u < tp.RestoreAt {
				continue
			}
			chain, ok = walker.Walk(chain[:0], tp.Tensor, func(x *graph.Tensor) bool {
				if e := recEvict[x.ID]; e > 0 {
					return e-1 >= u
				}
				return lv.LastUse[x.ID] < 0 || lv.LastUse[x.ID] >= u
			}, len(g.Ops))
			if !ok {
				continue // the verifier reports unrecoverable chains
			}
			var sum, ws int64
			for _, op := range chain {
				if op.Workspace > ws {
					ws = op.Workspace
				}
				for _, o := range op.Outputs {
					if o != tp.Tensor {
						sum += o.Bytes()
					}
				}
			}
			if b := sum + ws; b > 0 {
				if chainT == nil {
					//lint:allow scratchreuse lazy one-shot allocation, taken at most once per finalize
					chainT = make([]int64, len(sched.Ops))
				}
				if b > chainT[u] {
					chainT[u] = b
				}
			}
		}
	}
	plan.ChainTransients = chainT
}
