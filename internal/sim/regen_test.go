package sim

import (
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/memorypool"
	"tsplit/internal/tensor"
)

// TestNestedRegenerationKeepsOuterChain drives a regeneration whose
// chain, while executing, needs a nested regeneration: the LRU
// pressure valve drops a chain source (y) to make room for an earlier
// chain op, so the later op that reads y regenerates it through a
// three-op chain of its own. Both walks share the simulator's chain
// walker; the outer chain buffer is still being iterated when the
// nested walk runs. If the nested chain were written into the outer
// buffer, the outer loop would run the nested ops in place of its own
// last op and never produce the target.
func TestNestedRegenerationKeepsOuterChain(t *testing.T) {
	unit := tensor.NewShape(1, memorypool.Alignment/4) // one aligned pool unit of float32
	g := graph.New()
	x1 := g.Input("x1", unit, tensor.Float32)
	x2 := g.Input("x2", unit, tensor.Float32)
	a := g.ReLU("a", x1)
	b := g.ReLU("b", a)
	y0 := g.ReLU("y0", x2)
	y1 := g.ReLU("y1", y0)
	y := g.ReLU("y", y1)
	c := g.Add("c", b, y)
	d := g.ReLU("d", c)
	// Droppable regenerated tensors, in the order the valve picks them.
	var spare []*graph.Tensor
	for _, name := range []string{"z", "w", "v", "u1", "u2"} {
		spare = append(spare, g.ReLU(name, x1))
	}
	sched, err := graph.BuildSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	lv := graph.AnalyzeLiveness(g, sched)

	// Nine units of device memory, all occupied: the inputs, a, and the
	// regenerated y plus spares. Everything else awaits regeneration.
	onDev := append([]*graph.Tensor{x1, x2, a, y}, spare...)
	s := New(g, sched, lv, core.NewPlan("nested", device.TitanRTX), device.TitanRTX, Options{
		Capacity:  int64(len(onDev)) * memorypool.Alignment,
		Recompute: LRURecompute,
	})
	s.reset()
	for _, tn := range g.Tensors {
		s.state[tn.ID] = dropped
	}
	for _, tn := range onDev {
		blk, err := s.pool.Alloc(tn.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		s.block[tn.ID] = blk
		s.state[tn.ID] = onDevice
		s.wasRecomputed[tn.ID] = tn != x1 && tn != x2 && tn != a
	}

	if _, err := s.regenerate(d, 0); err != nil {
		t.Fatal(err)
	}
	// Outer chain b, c, d plus nested y0, y1, y.
	if s.res.RecomputedOps != 6 {
		t.Fatalf("regenerated %d ops, want 6 (3 outer + 3 nested)", s.res.RecomputedOps)
	}
	for _, tn := range []*graph.Tensor{b, y, c, d} {
		if s.state[tn.ID] != onDevice {
			t.Fatalf("%s not on device after regeneration (state %d)", tn.Name, s.state[tn.ID])
		}
	}
	for _, tn := range spare {
		if s.state[tn.ID] != dropped {
			t.Fatalf("spare %s still on device: the nested regeneration did not run under pressure", tn.Name)
		}
	}
	// Both chain buffers went back to the free-list; they are distinct
	// arrays (compare their first slots).
	if len(s.chainFree) != 2 || &s.chainFree[0][:1][0] == &s.chainFree[1][:1][0] {
		t.Fatalf("free-list holds %d chain buffers, want 2 distinct ones", len(s.chainFree))
	}
}
