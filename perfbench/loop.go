package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one named job mix. The benchmark drives it as a closed
// loop: each of workers() clients starts its next job only after the
// previous one returned.
type workload interface {
	// setUp discards any previous state and builds everything the
	// jobs reuse: workloads, caches, pools, a server. It is what
	// setup_s times.
	setUp() error
	// workers is the number of closed-loop clients.
	workers() int
	// passLen is the number of jobs in pass p of the seeded job list.
	// A phase always runs whole passes, so every phase sees the same
	// mix of jobs whatever its length.
	passLen(p int) int
	// do runs job i of pass p and checks its answer; a wrong answer
	// is an error.
	do(p, i int, c ctx) error
	// check verifies, after a phase, the answers that could not be
	// checked while it ran, and returns how many were wrong.
	check(c ctx) (failed int, err error)
	// outputs re-derives the workload's simulated outputs from its
	// checked answers, and returns how many answers the re-derivation
	// found wrong.
	outputs(c ctx) (out simOutputs, failed int, err error)
	// close stops whatever setUp started.
	close()
}

// simOutputs are the simulated results a workload computes. They are
// pure functions of the program's plans and repeat exactly.
type simOutputs struct {
	scaleGain     float64 // max scale (or memory) under TSPLIT ÷ under Base, geomean
	throughput    float64 // simulated ÷ ideal throughput, geomean
	peakPredError float64 // |planner-predicted − simulated peak| ÷ simulated, mean
}

// phase is what one closed-loop phase measured. Times are raw; the
// methods scale them to nominal time (see calibrate.go).
type phase struct {
	elapsed   time.Duration // spent in passes, calibration excluded
	stolen    time.Duration // of elapsed, taken by the host
	rawLatMs  []float64     // per job; +Inf for a failed job
	latMsFree []float64     // per job, stolen time excluded
	failed    int
	allocB    uint64
	gcCycles  uint32
	gcPauseNs uint64
	cal       calibrator
}

func (ph *phase) jobs() int { return len(ph.rawLatMs) }

// rawJobsPerSec is the phase's throughput as measured.
func (ph *phase) rawJobsPerSec() float64 { return float64(ph.jobs()) / ph.elapsed.Seconds() }

// jobsPerSec is the phase's nominal throughput.
func (ph *phase) jobsPerSec() float64 {
	return float64(ph.jobs()) / (ph.elapsed - ph.stolen).Seconds() / ph.cal.factor()
}

// latMs returns the nominal job latencies, sorted.
func (ph *phase) latMs() []float64 {
	f := ph.cal.factor()
	out := make([]float64, len(ph.latMsFree))
	for i, l := range ph.latMsFree {
		out[i] = l * f
	}
	return sortedCopy(out)
}

// maxReportedErrors bounds the wrong answers echoed to stderr.
const maxReportedErrors = 5

// runPhase runs whole passes of w's job list until at least d has
// elapsed in passes and at least minJobs jobs have finished. It
// calibrates between passes and, with a single worker, between jobs.
// tr is nil in timed phases.
func runPhase(w workload, d time.Duration, minJobs int, tr *tracer) *phase {
	ph := &phase{}
	// A single worker's jobs are long next to the kernel's 10 ms steal
	// resolution, and nothing else runs beside them, so the time the
	// host stole during a job is the job's. Jobs of concurrent workers
	// are too short to charge one by one, as the counter moves in 10 ms
	// ticks; each loses the phase's share of stolen time instead. Their
	// latencies rise and fall with the phase's throughput, stolen time
	// included, from run to run.
	perJobSteal := w.workers() == 1
	var reported atomic.Int32
	runtime.GC()
	ph.cal.run()
	var ms0, ms1 runtime.MemStats
	for p := 0; ; p++ {
		n := w.passLen(p)
		lat := make([]float64, n)
		free := make([]float64, n)
		bad := make([]bool, n)
		base := int32(ph.jobs())
		var next atomic.Int64
		var wg sync.WaitGroup
		spent0, calAlloc0 := ph.cal.spent, ph.cal.allocB
		runtime.ReadMemStats(&ms0)
		st0 := stolen()
		start := now()
		for k := 0; k < w.workers(); k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					var jobSt0 time.Duration
					if perJobSteal {
						jobSt0 = stolen()
					}
					c := rootCtx(tr, base+int32(i)).begin("job")
					t0 := now()
					err := w.do(p, i, c)
					took := since(t0)
					c.end()
					lat[i] = float64(took) / 1e6
					if perJobSteal {
						free[i] = float64(took-min(stolen()-jobSt0, took/2)) / 1e6
					} else {
						free[i] = lat[i]
					}
					if err != nil {
						bad[i] = true
						if reported.Add(1) <= maxReportedErrors {
							fmt.Fprintf(os.Stderr, "perfbench: pass %d job %d: %v\n", p, i, err)
						}
					}
					if w.workers() == 1 {
						ph.cal.maybe()
					}
				}
			}()
		}
		wg.Wait()
		took := since(start) - (ph.cal.spent - spent0)
		st := min(stolen()-st0, took/2)
		ph.elapsed += took
		ph.stolen += st
		runtime.ReadMemStats(&ms1)
		ph.allocB += ms1.TotalAlloc - ms0.TotalAlloc - (ph.cal.allocB - calAlloc0)
		ph.gcCycles += ms1.NumGC - ms0.NumGC
		ph.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		for i := range lat {
			if bad[i] {
				ph.failed++
				lat[i], free[i] = math.Inf(1), math.Inf(1)
			}
		}
		ph.rawLatMs = append(ph.rawLatMs, lat...)
		ph.latMsFree = append(ph.latMsFree, free...)
		if ph.elapsed >= d && ph.jobs() >= minJobs {
			break
		}
		ph.cal.maybe()
	}
	if !perJobSteal {
		share := 1 - float64(ph.stolen)/float64(ph.elapsed)
		for i := range ph.latMsFree {
			ph.latMsFree[i] *= share
		}
	}
	ph.cal.run()
	return ph
}
