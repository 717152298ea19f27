package graph

import (
	"slices"
	"testing"

	"tsplit/internal/tensor"
)

func TestRecomputeChain(t *testing.T) {
	g := New()
	x := g.Input("x", tensor.NewShape(2, 4), tensor.Float32)
	a := g.ReLU("a", x)
	b := g.ReLU("b", a)
	c := g.ReLU("c", b)
	avail := func(tt *Tensor) bool { return tt == x }
	var w ChainWalker
	chain, ok := w.Walk(nil, c, avail, 10)
	if !ok {
		t.Fatal(w.Err())
	}
	if len(chain) != 3 {
		t.Fatalf("chain length %d", len(chain))
	}
	if chain[0] != a.Producer || chain[2] != c.Producer {
		t.Fatal("chain out of order")
	}
	if w.Err() != nil {
		t.Fatalf("Err after a successful walk = %v", w.Err())
	}
	// Bounded length.
	if _, ok := w.Walk(nil, c, avail, 2); ok {
		t.Fatal("chain over maxLen should fail")
	}
	if got, want := w.Err().Error(), "core: recompute chain for c.y exceeds 2 ops"; got != want {
		t.Fatalf("Err = %q, want %q", got, want)
	}
	// Unavailable source.
	if _, ok := w.Walk(nil, c, func(*Tensor) bool { return false }, 10); ok {
		t.Fatal("unavailable source should fail")
	}
	if got, want := w.Err().Error(), "core: recompute source x has no producer and is not available"; got != want {
		t.Fatalf("Err = %q, want %q", got, want)
	}
}

// TestChainWalkerNested walks a second chain with the same walker while
// the first chain's buffer is still in use — the simulator's nested
// regeneration — and checks that neither buffer sees the other's ops
// and that a failed walk leaves the caller's prefix intact.
func TestChainWalkerNested(t *testing.T) {
	g := New()
	x := g.Input("x", tensor.NewShape(2, 4), tensor.Float32)
	a := g.ReLU("a", x)
	b := g.ReLU("b", a)
	c := g.Add("c", b, a)
	y := g.ReLU("y", x)
	z := g.ReLU("z", y)
	fromX := func(tt *Tensor) bool { return tt == x }

	var w ChainWalker
	outer, ok := w.Walk(make([]*Op, 0, 8), c, fromX, len(g.Ops))
	if !ok {
		t.Fatal(w.Err())
	}
	want := []*Op{a.Producer, b.Producer, c.Producer}
	if !slices.Equal(outer, want) {
		t.Fatalf("outer chain %v, want %v", outer, want)
	}
	inner, ok := w.Walk(make([]*Op, 0, 8), z, fromX, len(g.Ops))
	if !ok {
		t.Fatal(w.Err())
	}
	if !slices.Equal(inner, []*Op{y.Producer, z.Producer}) {
		t.Fatalf("nested chain %v", inner)
	}
	if !slices.Equal(outer, want) {
		t.Fatalf("nested walk clobbered the outer chain: %v", outer)
	}
	// A walk appends after the caller's prefix, and a failure truncates
	// back to it.
	prefix := []*Op{c.Producer}
	got, ok := w.Walk(prefix, z, func(*Tensor) bool { return false }, len(g.Ops))
	if ok || !slices.Equal(got, prefix) {
		t.Fatalf("failed walk returned %v, ok=%v; want the untouched prefix", got, ok)
	}
	got, ok = w.Walk(prefix, z, fromX, len(g.Ops))
	if !ok || !slices.Equal(got, []*Op{c.Producer, y.Producer, z.Producer}) {
		t.Fatalf("appending walk returned %v, ok=%v", got, ok)
	}
}

func TestChainWalkerDoesNotAllocate(t *testing.T) {
	g := tinyMLP(t, 4, SGD)
	s, err := BuildSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	lv := AnalyzeLiveness(g, s)
	var loss *Tensor
	for _, tt := range g.Tensors {
		if tt.Producer != nil && tt.Producer.Phase == Forward {
			loss = tt
		}
	}
	var w ChainWalker
	buf := make([]*Op, 0, len(g.Ops))
	avail := func(tt *Tensor) bool { return lv.FirstUse[tt.ID] < 0 }
	w.Walk(buf, loss, avail, len(g.Ops)) // grow the seen array
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = w.Walk(buf[:0], loss, avail, len(g.Ops))
		w.Walk(buf[:0], loss, avail, 1) // the failure path too
	})
	if allocs != 0 {
		t.Fatalf("walks allocate %.1f times per run", allocs)
	}
}
