package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sync"

	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/experiments"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/profiler"
	"tsplit/internal/sim"
)

// scaleCell is one cell of paper Table IV (max batch) or Table V (max
// parameter scale at batch 16) on the Titan RTX.
type scaleCell struct {
	table         int // 4 or 5
	model, policy string
	want          int // the measured value recorded in EXPERIMENTS.md / bench_results.txt
}

func (c scaleCell) String() string {
	return fmt.Sprintf("table%d/%s/%s", c.table, c.model, c.policy)
}

var scalePolicies = []string{"base", "vdnn-conv", "vdnn-all", "checkpoints", "superneurons", "tsplit"}

// scaleWant holds the reproduction's measured Tables IV and V, one row
// per model in scalePolicies order; -1 is the paper's ×.
var scaleWant = map[int]map[string][]int{
	4: {
		"vgg16":       {215, 280, 313, 370, 436, 460},
		"vgg19":       {197, 280, 313, 369, 435, 461},
		"resnet50":    {208, 295, 560, 316, 695, 834},
		"resnet101":   {138, 200, 482, 118, 584, 777},
		"inceptionv4": {124, 205, 451, 127, 635, 683},
		"transformer": {199, -1, 797, 324, -1, 1456},
	},
	5: {
		"vgg16":       {4, 4, 5, 5, 5, 5},
		"vgg19":       {4, 4, 5, 5, 5, 5},
		"resnet50":    {8, 10, 13, 11, 13, 14},
		"resnet101":   {6, 7, 10, 5, 10, 11},
		"inceptionv4": {6, 7, 10, 6, 11, 11},
		"transformer": {6, -1, 8, 7, -1, 8},
	},
}

// scaleCells lists the applicable cells of both tables in table order.
func scaleCells() []scaleCell {
	var cells []scaleCell
	for _, t := range []int{4, 5} {
		for _, m := range experiments.EvalModels {
			for j, p := range scalePolicies {
				if w := scaleWant[t][m][j]; w >= 0 {
					cells = append(cells, scaleCell{table: t, model: m, policy: p, want: w})
				}
			}
		}
	}
	return cells
}

// cellConfig is the model configuration a cell's search starts from.
func (c scaleCell) config() models.Config {
	if c.table == 5 {
		return models.Config{BatchSize: 16}
	}
	return models.Config{}
}

// scaleSearch is the paper-reproduction workload: every job is one
// cold max-scale search, exactly as tsplit-bench -exp table4,table5
// runs them, and each probe of the search prepares its workload anew.
type scaleSearch struct {
	seed  uint64
	cells []scaleCell
	dev   device.Device

	mu      sync.Mutex
	answers map[int]int // cell index → last answer
}

func newScaleSearch(seed uint64) *scaleSearch {
	return &scaleSearch{seed: seed, cells: scaleCells(), dev: device.TitanRTX, answers: map[int]int{}}
}

func (s *scaleSearch) workers() int { return 1 }

func (s *scaleSearch) passLen(int) int { return len(s.cells) }

// order is pass p's seeded permutation of the cells.
func (s *scaleSearch) order(p int) []int {
	return newRNG(s.seed ^ uint64(p+1)*0x9e3779b97f4a7c15).perm(len(s.cells))
}

// setUp prepares every evaluation model at both tables' starting
// configurations and runs every applicable policy on it once, which
// fills the simulator pool the searches share.
func (s *scaleSearch) setUp() error {
	for _, t := range []int{4, 5} {
		for _, m := range experiments.EvalModels {
			p, err := experiments.Prepare(m, scaleCell{table: t}.config(), s.dev)
			if err != nil {
				return err
			}
			for j, policy := range scalePolicies {
				if scaleWant[t][m][j] < 0 {
					continue
				}
				if r := experiments.RunPolicy(p, policy, 0); !r.Feasible {
					return fmt.Errorf("table%d/%s/%s: infeasible at its starting scale: %s", t, m, policy, r.Reason)
				}
			}
		}
	}
	return nil
}

func (s *scaleSearch) do(p, i int, c ctx) error {
	idx := s.order(p)[i]
	cell := s.cells[idx]
	var got int
	if c.tr == nil {
		got = publicSearch(cell, s.dev)
	} else {
		got = tracedSearch(cell, s.dev, c)
	}
	s.mu.Lock()
	s.answers[idx] = got
	s.mu.Unlock()
	if got != cell.want {
		return fmt.Errorf("%v: max scale %d, want %d", cell, got, cell.want)
	}
	return nil
}

// publicSearch runs a cell through the experiments package's entry
// points, as the paper-reproduction CLI does.
func publicSearch(cell scaleCell, dev device.Device) int {
	if cell.table == 5 {
		return experiments.MaxParamScale(cell.model, cell.policy, dev, cell.config(), 0)
	}
	return experiments.MaxSampleScale(cell.model, cell.policy, dev, cell.config(), 0)
}

// tracedSearch is publicSearch with every layer call wrapped in a
// span: it mirrors experiments.MaxSampleScale / MaxParamScale →
// searchMax → Feasible → Prepare → RunPolicy call for call. The
// equivalence test in scale_test.go pins the mirror to the real
// entry points.
func tracedSearch(cell scaleCell, dev device.Device, c ctx) int {
	c.count("experiments.search", 1)
	cfg := cell.config()
	hi := 4096
	scaleTo := func(n int) models.Config {
		k := cfg
		k.BatchSize = n
		return k
	}
	if cell.table == 5 {
		hi = 128
		scaleTo = func(n int) models.Config {
			k := cfg
			k.ParamScale = float64(n)
			return k
		}
	}
	return searchMax(func(n int) bool {
		return tracedFeasible(cell.model, scaleTo(n), dev, cell.policy, c)
	}, hi)
}

// searchMax mirrors the experiments package's exponential-then-binary
// search for the largest feasible n in [0, hi].
func searchMax(feasible func(int) bool, hi int) int {
	if !feasible(1) {
		return 0
	}
	lo, probe := 1, 2
	for probe <= hi && feasible(probe) {
		lo = probe
		probe *= 2
	}
	up := probe
	if up > hi {
		up = hi + 1
	}
	for lo+1 < up {
		mid := (lo + up) / 2
		if feasible(mid) {
			lo = mid
		} else {
			up = mid
		}
	}
	return lo
}

// tracedFeasible mirrors experiments.Feasible: one probe.
func tracedFeasible(model string, cfg models.Config, dev device.Device, policy string, c ctx) bool {
	c.count("experiments.probe", 1)
	p, err := tracedPrepare(model, cfg, dev, c)
	if err != nil {
		return false
	}
	return tracedRunPolicy(p, policy, c).Feasible
}

// tracedPrepare mirrors experiments.Prepare.
func tracedPrepare(model string, cfg models.Config, dev device.Device, c ctx) (*experiments.Prepared, error) {
	sp := c.begin("models.build")
	g, err := models.Build(model, cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = c.begin("graph.schedule")
	sched, err := graph.BuildSchedule(g)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = c.begin("graph.liveness")
	lv := graph.AnalyzeLiveness(g, sched)
	sp.end()
	sp = c.begin("profiler.profile")
	prof := profiler.New(dev, sched)
	sp.end()
	return &experiments.Prepared{Model: model, Cfg: cfg, Dev: dev, G: g, Sched: sched, Lv: lv, Prof: prof}, nil
}

// tracedRunPolicy mirrors experiments.RunPolicy, including TSPLIT's
// plan → trial-run loop over growing fragmentation reserves.
func tracedRunPolicy(p *experiments.Prepared, policy string, c ctx) experiments.PolicyResult {
	r := experiments.PolicyResult{Policy: policy}
	reserves := []int64{0}
	if policy == "tsplit" {
		capacity := p.Dev.MemBytes
		reserves = []int64{0, capacity * 6 / 100, capacity * 13 / 100, capacity * 21 / 100, -1}
	}
	for k, rv := range reserves {
		plan, err := tracedPlan(p, policy, rv, c)
		if k > 0 {
			c.count("core.plan.retry", 1)
		}
		if err != nil {
			r.Reason = err.Error()
			continue
		}
		r.Plan = plan
		sp := c.begin("sim.run")
		res, err := experiments.Simulate(p, plan, simOptions(policy, 0))
		sp.end()
		if err != nil {
			c.count("sim.oom", 1)
			r.Reason = err.Error()
			continue
		}
		r.Feasible = true
		r.Res = res
		return r
	}
	return r
}

// tracedPlan plans one policy: the TSPLIT planner or a baseline from
// the registry.
func tracedPlan(p *experiments.Prepared, policy string, reserve int64, c ctx) (*core.Plan, error) {
	if policy == "tsplit" {
		sp := c.begin("core.plan")
		defer sp.end()
		return core.NewPlanner(p.G, p.Sched, p.Lv, p.Prof, p.Dev, core.Options{FragmentationReserve: reserve}).Plan()
	}
	b, ok := baselines.Registry[policy]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q", policy)
	}
	sp := c.begin("baselines.plan")
	defer sp.end()
	return b(baselines.Inputs{G: p.G, Sched: p.Sched, Lv: p.Lv, Prof: p.Prof, Dev: p.Dev})
}

// simOptions mirrors the runtime configuration the experiments
// package gives each policy: SuperNeurons and TSPLIT run the LRU
// recomputation cache.
func simOptions(policy string, capacity int64) sim.Options {
	o := sim.Options{Capacity: capacity}
	switch policy {
	case "superneurons", "tsplit":
		o.Recompute = sim.LRURecompute
	}
	return o
}

func (s *scaleSearch) check(ctx) (int, error) { return 0, nil }

// outputs reruns every correctly answered cell once at its answer, for
// the simulated ÷ ideal throughput at its largest scale and, for TSPLIT
// plans, the error of the planner's peak prediction there. The scale
// gain comes from the answers themselves. Wrongly answered cells
// already count as failed jobs.
func (s *scaleSearch) outputs(c ctx) (simOutputs, int, error) {
	var thr, errs []float64
	got := map[string]int{}
	for idx, cell := range s.cells {
		s.mu.Lock()
		n, ok := s.answers[idx]
		s.mu.Unlock()
		if !ok || n != cell.want {
			continue
		}
		got[cell.String()] = n
		cfg := cell.config()
		if cell.table == 5 {
			cfg.ParamScale = float64(n)
		} else {
			cfg.BatchSize = n
		}
		p, err := experiments.Prepare(cell.model, cfg, s.dev)
		if err != nil {
			return simOutputs{}, 0, fmt.Errorf("%v: %w", cell, err)
		}
		r := experiments.RunPolicy(p, cell.policy, 0)
		if !r.Feasible {
			return simOutputs{}, 0, fmt.Errorf("%v: infeasible at its max scale %d: %s", cell, n, r.Reason)
		}
		thr = append(thr, p.Prof.Total()/r.Res.Time)
		if cell.policy == "tsplit" {
			errs = append(errs, math.Abs(float64(r.Plan.PredictedPeak-r.Res.PeakBytes))/float64(r.Res.PeakBytes))
		}
	}
	gain := tableGain(func(c scaleCell) (int, bool) {
		n, ok := got[c.String()]
		return n, ok
	})
	return simOutputs{scaleGain: gain, throughput: geomean(thr), peakPredError: mean(errs)}, 0, nil
}

// tableGain is tsplit_scale_gain_geomean, the same quantity on every
// workload: over Tables IV and V and the evaluation models, the
// geometric mean of TSPLIT's max scale ÷ Base's. answer gives a cell's
// checked max scale, or false if it has none.
func tableGain(answer func(scaleCell) (int, bool)) float64 {
	var gains []float64
	for _, t := range []int{4, 5} {
		for _, m := range experiments.EvalModels {
			base, okBase := answer(scaleCell{table: t, model: m, policy: "base"})
			ts, okTS := answer(scaleCell{table: t, model: m, policy: "tsplit"})
			if okBase && okTS && base > 0 {
				gains = append(gains, float64(ts)/float64(base))
			}
		}
	}
	return geomean(gains)
}

// searchedGain computes tableGain for the workloads whose jobs are not
// table searches: it runs the Base and TSPLIT cells through the public
// entry points, outside the timed phase, and returns the gain and how
// many cells answered other than the tables.
func searchedGain(dev device.Device) (float64, int) {
	failed := 0
	gain := tableGain(func(c scaleCell) (int, bool) {
		want := scaleWant[c.table][c.model][slices.Index(scalePolicies, c.policy)]
		if got := publicSearch(c, dev); got != want {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v: max scale %d, want %d\n", c, got, want)
			return 0, false
		}
		return want, true
	})
	return gain, failed
}

func (s *scaleSearch) close() {}
