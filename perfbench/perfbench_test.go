package main

import (
	"reflect"
	"testing"

	"tsplit/internal/experiments"
	"tsplit/internal/models"
)

func TestJobListsFollowTheSeed(t *testing.T) {
	serveBodies := func(seed uint64, b int) [][]byte {
		var out [][]byte
		for _, r := range newServeMix(seed).block(b) {
			out = append(out, append([]byte(r.path), r.body...))
		}
		return out
	}
	for p := 0; p < 3; p++ {
		if !reflect.DeepEqual(newScaleSearch(7).order(p), newScaleSearch(7).order(p)) {
			t.Errorf("scale-search pass %d: same seed, different order", p)
		}
		if reflect.DeepEqual(newScaleSearch(7).order(p), newScaleSearch(8).order(p)) {
			t.Errorf("scale-search pass %d: different seeds, same order", p)
		}
		if !reflect.DeepEqual(newPlanVerify(7).order(p), newPlanVerify(7).order(p)) {
			t.Errorf("plan-verify pass %d: same seed, different order", p)
		}
		if reflect.DeepEqual(newPlanVerify(7).order(p), newPlanVerify(8).order(p)) {
			t.Errorf("plan-verify pass %d: different seeds, same order", p)
		}
		if !reflect.DeepEqual(serveBodies(7, p), serveBodies(7, p)) {
			t.Errorf("serve-mix block %d: same seed, different requests", p)
		}
		if reflect.DeepEqual(serveBodies(7, p), serveBodies(8, p)) {
			t.Errorf("serve-mix block %d: different seeds, same requests", p)
		}
	}
	if reflect.DeepEqual(newScaleSearch(7).order(0), newScaleSearch(7).order(1)) {
		t.Error("scale-search: passes 0 and 1 share an order")
	}
}

func TestServeBlockComposition(t *testing.T) {
	w := newServeMix(3)
	fresh := map[uint64]bool{}
	for b := 0; b < 3; b++ {
		var n [3]int
		for _, r := range w.block(b) {
			n[r.class]++
			if r.class == classMiss {
				if fresh[r.spec] {
					t.Errorf("block %d: fresh spec seed %d already sent", b, r.spec)
				}
				fresh[r.spec] = true
			}
			if r.class == classHit && r.zoo < 0 && !fresh[r.spec] {
				t.Errorf("block %d: repeat of spec seed %d that was never sent fresh", b, r.spec)
			}
		}
		if n[classMiss] != blockFresh || n[classPeak] != blockPeaks || n[classHit] != blockLen-blockFresh-blockPeaks {
			t.Errorf("block %d: class counts %v", b, n)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p90 averages ranks 176..184, p50 ranks 96..104.
	p90 := percentile(xs, 0.9)
	if p90.Value != 180 || p90.Samples != 200 || p90.Beyond != 16 || !p90.ok() {
		t.Errorf("p90 of 1..200 = %+v, want 180 with 16 beyond", p90)
	}
	if p50 := percentile(xs, 0.5); p50.Value != 100 || p50.Beyond != 96 {
		t.Errorf("p50 of 1..200 = %+v", p50)
	}
	if p := percentile(xs[:124], 0.9); p.ok() {
		t.Errorf("p90 of 124 samples has %d beyond and passes the rule", p.Beyond)
	}
	if n := minSamplesFor(0.9); n != 125 {
		t.Errorf("minSamplesFor(0.9) = %d, want 125", n)
	}
	if n := minSamplesFor(0.5); n != 21 {
		t.Errorf("minSamplesFor(0.5) = %d, want 21", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "d", Start: 12, End: 18, Parent: 1},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	spans = []span{
		{Name: "job", AllocStart: 0, AllocEnd: 100, Parent: -1},
		{Name: "a", AllocStart: 10, AllocEnd: 40, Parent: 0},
		{Name: "b", AllocStart: 50, AllocEnd: 60, Parent: 1},
	}
	if got := selfAllocs(spans); !reflect.DeepEqual(got, []int64{70, 20, 10}) {
		t.Errorf("selfAllocs = %v", got)
	}
}

// TestTracedSearchMatchesPublic pins the traced mirror of the
// max-scale search to the experiments package: on a subset of cells it
// must find the same answer with the same probes, each probe agreeing
// with experiments.Feasible. If the program's search, preparation or
// policy run changes shape, this fails and the mirror must follow.
func TestTracedSearchMatchesPublic(t *testing.T) {
	w := newScaleSearch(1)
	for _, cell := range w.cells {
		switch cell.String() {
		case "table4/vgg16/base", "table4/vgg16/tsplit", "table5/transformer/checkpoints", "table5/resnet50/superneurons":
		default:
			continue
		}
		tr := newTracer()
		c := rootCtx(tr, 0).begin("job")
		got := tracedSearch(cell, w.dev, c)
		c.end()

		type probe struct {
			n        int
			feasible bool
		}
		var publicProbes []probe
		hi := 4096
		if cell.table == 5 {
			hi = 128
		}
		ref := searchMax(func(n int) bool {
			cfg := cell.config()
			if cell.table == 5 {
				cfg.ParamScale = float64(n)
			} else {
				cfg.BatchSize = n
			}
			ok := experiments.Feasible(cell.model, cfg, w.dev, cell.policy, 0)
			publicProbes = append(publicProbes, probe{n, ok})
			return ok
		}, hi)
		if pub := publicSearch(cell, w.dev); got != pub || ref != pub || got != cell.want {
			t.Errorf("%v: traced %d, public %d, reference %d, want %d", cell, got, pub, ref, cell.want)
		}
		if n := tr.counts["experiments.probe"]; n != int64(len(publicProbes)) {
			t.Errorf("%v: traced search made %d probes, public %d", cell, n, len(publicProbes))
		}
		ls := layerStats(tr.spans)
		if ls["models.build"] == nil || ls["models.build"].calls != int64(len(publicProbes)) {
			t.Errorf("%v: models.build spans %+v, want one per probe", cell, ls["models.build"])
		}
		var self int64
		for _, l := range ls {
			self += l.selfNs
		}
		if job := tr.spans[0].dur(); self != job {
			t.Errorf("%v: layer self times sum to %d ns, job took %d ns", cell, self, job)
		}
	}
}

func TestPlanVerifyJobsAnswer(t *testing.T) {
	w := newPlanVerify(1)
	w.prep = map[string]*experiments.Prepared{}
	for _, m := range []string{"vgg16", "resnet50"} {
		p, err := experiments.Prepare(m, models.Config{}, w.dev)
		if err != nil {
			t.Fatal(err)
		}
		w.prep[m] = p
	}
	order := w.order(0)
	for i, idx := range order {
		if m := pvJobs[idx].model; m != "vgg16" && m != "resnet50" {
			continue
		}
		tr := newTracer()
		if err := w.do(0, i, rootCtx(tr, 0)); err != nil {
			t.Errorf("%+v: %v", pvJobs[idx], err)
		}
		if err := w.do(0, i, rootCtx(nil, 0)); err != nil {
			t.Errorf("%+v untraced: %v", pvJobs[idx], err)
		}
		var names []string
		for _, s := range tr.spans {
			names = append(names, s.Name)
		}
		if !reflect.DeepEqual(names, []string{"core.plan", "core.verify", "sim.run"}) {
			t.Errorf("%+v: spans %v", pvJobs[idx], names)
		}
	}
}

// TestKernelDoesNotAllocate keeps the calibration kernel independent
// of the program's heap: a kernel that allocated would be slowed by
// the collector in step with the program, and would hide allocation
// changes from the corrected timings.
func TestKernelDoesNotAllocate(t *testing.T) {
	kernel()
	if n := testing.AllocsPerRun(5, kernel); n != 0 {
		t.Errorf("kernel allocates %v times per run", n)
	}
}
