package main

import (
	"fmt"
	"math"
	"sync"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/experiments"
	"tsplit/internal/models"
	"tsplit/internal/sim"
)

// pvJob is one tsplit-plan job: plan a zoo model at a fraction of its
// unmanaged peak, verify the plan statically, and simulate it.
type pvJob struct {
	model string
	frac  float64 // capacity ÷ unmanaged peak
}

// pvJobs runs every zoo model, 112 to 1631 ops, from loose to tight
// budgets. The large models get fewer budgets because verifying one
// of their plans costs a quarter to half a second.
var pvJobs = []pvJob{
	{"bert-large", 0.9}, {"bert-large", 0.5}, {"bert-large", 0.3},
	{"inceptionv4", 0.9}, {"inceptionv4", 0.5}, {"inceptionv4", 0.3},
	{"resnet101", 0.9}, {"resnet101", 0.5}, {"resnet101", 0.3},
	{"resnet50", 0.9}, {"resnet50", 0.7}, {"resnet50", 0.5}, {"resnet50", 0.4},
	{"transformer", 0.9}, {"transformer", 0.7}, {"transformer", 0.5}, {"transformer", 0.4},
	{"vgg16", 0.9}, {"vgg16", 0.7},
	{"vgg19", 0.9}, {"vgg19", 0.7},
}

// pvAnswer is what one job produced; repeats of a job must agree.
type pvAnswer struct {
	predictedPeak, simPeak int64
	simTime, idealTime     float64
}

// planVerify is the tsplit-plan workload: workloads are built in
// set-up, so each job is planning, verification and simulation only.
type planVerify struct {
	seed uint64
	dev  device.Device
	prep map[string]*experiments.Prepared

	mu      sync.Mutex
	answers map[int]pvAnswer
}

func newPlanVerify(seed uint64) *planVerify {
	return &planVerify{seed: seed, dev: device.TitanRTX, answers: map[int]pvAnswer{}}
}

func (w *planVerify) workers() int { return 1 }

func (w *planVerify) passLen(int) int { return len(pvJobs) }

func (w *planVerify) order(p int) []int {
	return newRNG(w.seed ^ uint64(p+1)*0x9e3779b97f4a7c15).perm(len(pvJobs))
}

func (w *planVerify) capacity(j pvJob) int64 {
	return int64(j.frac * float64(w.prep[j.model].Lv.Peak))
}

// setUp builds every model's workload, then plans and simulates every
// job once, which fills the simulator pool at every budget.
func (w *planVerify) setUp() error {
	w.prep = map[string]*experiments.Prepared{}
	for _, j := range pvJobs {
		p := w.prep[j.model]
		if p == nil {
			var err error
			if p, err = experiments.Prepare(j.model, models.Config{}, w.dev); err != nil {
				return err
			}
			w.prep[j.model] = p
		}
		capacity := w.capacity(j)
		plan, err := core.NewPlanner(p.G, p.Sched, p.Lv, p.Prof, p.Dev, core.Options{Capacity: capacity}).Plan()
		if err != nil {
			return fmt.Errorf("%s@%.2f: %w", j.model, j.frac, err)
		}
		if _, err := experiments.Simulate(p, plan, sim.Options{Capacity: capacity, Recompute: sim.LRURecompute}); err != nil {
			return fmt.Errorf("%s@%.2f: %w", j.model, j.frac, err)
		}
	}
	return nil
}

func (w *planVerify) do(p, i int, c ctx) error {
	idx := w.order(p)[i]
	j := pvJobs[idx]
	pr := w.prep[j.model]
	capacity := w.capacity(j)

	sp := c.begin("core.plan")
	plan, err := core.NewPlanner(pr.G, pr.Sched, pr.Lv, pr.Prof, pr.Dev, core.Options{Capacity: capacity}).Plan()
	sp.end()
	if err != nil {
		return fmt.Errorf("%s@%.2f: plan: %w", j.model, j.frac, err)
	}
	sp = c.begin("core.verify")
	vs := core.VerifyAt(plan, pr.G, pr.Sched, pr.Lv, capacity)
	sp.end()
	if len(vs) > 0 {
		return fmt.Errorf("%s@%.2f: %d violations, first: %v", j.model, j.frac, len(vs), vs[0])
	}
	sp = c.begin("sim.run")
	res, err := experiments.Simulate(pr, plan, sim.Options{Capacity: capacity, Recompute: sim.LRURecompute})
	sp.end()
	if err != nil {
		c.count("sim.oom", 1)
		return fmt.Errorf("%s@%.2f: simulate: %w", j.model, j.frac, err)
	}
	if res.PeakBytes > capacity {
		return fmt.Errorf("%s@%.2f: simulated peak %d over capacity %d", j.model, j.frac, res.PeakBytes, capacity)
	}
	a := pvAnswer{plan.PredictedPeak, res.PeakBytes, res.Time, pr.Prof.Total()}
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev, ok := w.answers[idx]; ok && prev != a {
		return fmt.Errorf("%s@%.2f: answer %+v differs from an earlier run's %+v", j.model, j.frac, a, prev)
	}
	w.answers[idx] = a
	return nil
}

func (w *planVerify) check(ctx) (int, error) { return 0, nil }

// outputs summarizes the jobs' checked answers: simulated ÷ ideal
// throughput and the planner's peak-prediction error. The scale gain
// comes from the table searches (searchedGain).
func (w *planVerify) outputs(ctx) (simOutputs, int, error) {
	w.mu.Lock()
	var thr, errs []float64
	for idx := range pvJobs {
		a, ok := w.answers[idx]
		if !ok {
			continue // a failed job
		}
		thr = append(thr, a.idealTime/a.simTime)
		errs = append(errs, math.Abs(float64(a.predictedPeak-a.simPeak))/float64(a.simPeak))
	}
	w.mu.Unlock()
	gain, failed := searchedGain(w.dev)
	return simOutputs{scaleGain: gain, throughput: geomean(thr), peakPredError: mean(errs)}, failed, nil
}

func (w *planVerify) close() {}
