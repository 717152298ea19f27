// Command perfbench is the repository's benchmark. It drives one named
// workload against the library's public entry points as a closed loop,
// checks every answer, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of its output.
//
//	go run . -workload scale-search -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up from scratch;
// setup_s is the median, and the last set-up serves the jobs.
const setupReps = 7

// spanDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/spans"

var workloads = map[string]func(seed uint64) workload{
	"scale-search": func(seed uint64) workload { return newScaleSearch(seed) },
	"plan-verify":  func(seed uint64) workload { return newPlanVerify(seed) },
	"serve-mix":    func(seed uint64) workload { return newServeMix(seed) },
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: scale-search, plan-verify or serve-mix")
	seed := flag.Uint64("seed", 1, "seed for the job list and request sequence")
	seconds := flag.Float64("seconds", 20, "measured time per run, in seconds")
	traceMode := flag.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload <%s> -seed N -seconds S -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	w := mk(*seed)
	defer w.close()

	var setupCal calibrator
	var rawSetups, freeSetups []float64
	for r := 0; r < setupReps; r++ {
		setupCal.run()
		runtime.GC()
		st0 := stolen()
		t0 := now()
		if err := w.setUp(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		took := since(t0)
		rawSetups = append(rawSetups, took.Seconds())
		freeSetups = append(freeSetups, (took - min(stolen()-st0, took/2)).Seconds())
	}
	setupCal.run()
	setups := make([]float64, len(freeSetups))
	for i, s := range freeSetups {
		setups[i] = s * setupCal.factor()
	}
	meta := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *traceMode,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"workers":    w.workers(),
		"setup_s":    setups,
		"raw":        map[string]any{"setup_s": rawSetups},
	}
	var res result
	var err error
	d := time.Duration(*seconds * float64(time.Second))
	if *traceMode == 0 {
		res, err = timedRun(w, d, setups, meta)
	} else {
		res, err = tracedRun(w, d, *name, *seed, meta)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// Failed jobs make some raw percentiles infinite, which JSON cannot
	// carry; the result line must still be printed.
	if m, err := json.Marshal(map[string]any{"meta": meta}); err == nil {
		fmt.Println(string(m))
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: meta: %v\n", err)
	}
	for name, v := range res.Metrics {
		res.Metrics[name] = metric{finite(v.Value), v.Unit}
	}
	r, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(r))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(w workload, d time.Duration, setups []float64, meta map[string]any) (result, error) {
	p50q, p90q := 0.50, 0.90
	ph := runPhase(w, d, minSamplesFor(p90q), nil)
	failed, err := w.check(rootCtx(nil, -1))
	if err != nil {
		return result{}, err
	}
	out, failedOut, err := w.outputs(rootCtx(nil, -1))
	if err != nil {
		return result{}, err
	}
	failed += failedOut
	// The heap is read last: outputs re-derives answers in a fixed
	// order, so the pools hold the same workloads whatever the seed.
	// The calibration kernel's memory is the benchmark's, not the
	// program's.
	releaseCalibration()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapLive := float64(ms.HeapAlloc) / 1e6
	lat := ph.latMs()
	p50, p90 := percentile(lat, p50q), percentile(lat, p90q)
	if !p50.ok() || !p90.ok() {
		return result{}, fmt.Errorf("too few samples for p90: %d", p90.Samples)
	}
	meta["latency_p50"] = p50
	meta["latency_p90"] = p90
	rawLat := sortedCopy(ph.rawLatMs)
	raw := meta["raw"].(map[string]any)
	raw["jobs_per_s"] = ph.rawJobsPerSec()
	raw["latency_p50_ms"] = percentile(rawLat, p50q).Value
	raw["latency_p90_ms"] = percentile(rawLat, p90q).Value
	raw["kernel_ms"] = ph.cal.raw
	raw["stolen_s"] = ph.stolen.Seconds()
	meta["passes_s"] = ph.elapsed.Seconds()

	attempted := ph.jobs()
	failed = min(attempted, failed+ph.failed)
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":                     {median(setups), "s"},
			"jobs_per_s":                  {ph.jobsPerSec(), "1/s"},
			"latency_p50_ms":              {p50.Value, "ms"},
			"latency_p90_ms":              {p90.Value, "ms"},
			"success_frac":                {float64(attempted-failed) / float64(attempted), "frac"},
			"alloc_mb_per_job":            {float64(ph.allocB) / 1e6 / float64(attempted), "MB"},
			"heap_live_mb":                {heapLive, "MB"},
			"tsplit_scale_gain_geomean":   {out.scaleGain, "x"},
			"sim_throughput_frac_geomean": {out.throughput, "frac"},
			"peak_pred_err_frac":          {out.peakPredError, "frac"},
		},
	}, nil
}

// serverLayers is implemented by workloads whose layers run inside a
// server, out of the benchmark's reach; they report the server's own
// counters instead.
type serverLayers interface {
	layerMetrics(jobs int) (map[string]float64, error)
}

// tracedRun runs the job list twice, untraced and then traced, each
// for half of d, and reports per-layer metrics from the traced half.
func tracedRun(w workload, d time.Duration, name string, seed uint64, meta map[string]any) (result, error) {
	un := runPhase(w, d/2, 1, nil)
	failedUn, err := w.check(rootCtx(nil, -1))
	if err != nil {
		return result{}, err
	}
	if err := w.setUp(); err != nil {
		return result{}, fmt.Errorf("set-up before traced phase: %w", err)
	}
	tr := newTracer()
	ph := runPhase(w, d/2, 1, tr)
	var extra map[string]float64
	if sl, ok := w.(serverLayers); ok {
		if extra, err = sl.layerMetrics(ph.jobs()); err != nil {
			return result{}, err
		}
	}
	failedTr, err := w.check(rootCtx(tr, -1))
	if err != nil {
		return result{}, err
	}
	_, failedOut, err := w.outputs(rootCtx(tr, -1))
	if err != nil {
		return result{}, err
	}
	path, err := tr.writeSpans(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	meta["spans"] = path

	m, shares := layerMetrics(tr, ph, un, extra)
	meta["layer_share"] = shares
	attempted := un.jobs() + ph.jobs()
	failed := min(attempted, un.failed+ph.failed+failedUn+failedTr+failedOut)
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// layerMetrics derives the per-layer metrics from a traced phase ph
// and the untraced phase un that ran the same job list before it.
func layerMetrics(tr *tracer, ph, un *phase, extra map[string]float64) (map[string]metric, map[string]float64) {
	ls := layerStats(tr.spans)
	get := func(n string) *layerStat {
		if l := ls[n]; l != nil {
			return l
		}
		return &layerStat{}
	}
	jobs := float64(ph.jobs())
	jobNs := float64(0)
	for _, s := range tr.spans {
		if s.Name == "job" && s.Job >= 0 {
			jobNs += float64(s.dur())
		}
	}
	perJobMs := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += get(n).selfNs
		}
		return float64(ns) / 1e6 / jobs
	}
	perJobMB := func(names ...string) float64 {
		var b int64
		for _, n := range names {
			b += get(n).selfAlloc
		}
		return float64(b) / 1e6 / jobs
	}
	share := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += get(n).selfNs
		}
		return ratio(float64(ns), jobNs)
	}
	calls := func(n string) float64 { return float64(get(n).calls) / jobs }
	var peakMs []float64
	for _, s := range tr.spans {
		if s.Name == "sim.peak" {
			peakMs = append(peakMs, float64(s.dur())/1e6)
		}
	}
	cnt := func(n string) float64 { return float64(tr.counts[n]) }

	m := map[string]metric{
		"models.build_ms":               {perJobMs("models.build"), "ms/job"},
		"models.build_calls":            {calls("models.build"), "calls/job"},
		"graph.schedule_ms":             {perJobMs("graph.schedule"), "ms/job"},
		"graph.liveness_ms":             {perJobMs("graph.liveness"), "ms/job"},
		"profiler.profile_ms":           {perJobMs("profiler.profile"), "ms/job"},
		"experiments.probes_per_search": {ratio(cnt("experiments.probe"), cnt("experiments.search")), "probes"},
		"experiments.prepare_share":     {share("models.build", "graph.schedule", "graph.liveness", "profiler.profile"), "frac"},
		"core.plan_ms":                  {perJobMs("core.plan"), "ms/job"},
		"core.plan_calls":               {calls("core.plan"), "calls/job"},
		"core.plan_retry_frac":          {ratio(cnt("core.plan.retry"), float64(get("core.plan").calls)), "frac"},
		"baselines.plan_ms":             {perJobMs("baselines.plan"), "ms/job"},
		"baselines.plan_calls":          {calls("baselines.plan"), "calls/job"},
		"core.verify_ms":                {perJobMs("core.verify"), "ms/job"},
		"core.verify_share":             {share("core.verify"), "frac"},
		"sim.run_ms":                    {perJobMs("sim.run"), "ms/job"},
		"sim.run_calls":                 {calls("sim.run"), "calls/job"},
		"sim.oom_frac":                  {ratio(cnt("sim.oom"), float64(get("sim.run").calls)), "frac"},
		"sim.peak_ms":                   {mean0(peakMs), "ms"},
		"serve.hit_ms":                  {extra["serve.hit_ms"], "ms"},
		"serve.miss_ms":                 {extra["serve.miss_ms"], "ms"},
		"serve.peak_ms":                 {extra["serve.peak_ms"], "ms"},
		"models.alloc_mb":               {perJobMB("models.build"), "MB/job"},
		"graph.alloc_mb":                {perJobMB("graph.schedule", "graph.liveness"), "MB/job"},
		"core.alloc_mb":                 {perJobMB("core.plan", "core.verify"), "MB/job"},
		"sim.alloc_mb":                  {perJobMB("sim.run", "sim.peak"), "MB/job"},
		"gc.cycles_per_job":             {float64(ph.gcCycles) / jobs, "cycles/job"},
		"gc.pause_ms":                   {float64(ph.gcPauseNs) / 1e6 / jobs, "ms/job"},
		"trace.overhead_frac":           {1 - ratio(ph.jobsPerSec(), un.jobsPerSec()), "frac"},
		"trace.unattributed_frac":       {share("job"), "frac"},
		"serve.cache_hit_frac":          {extra["serve.cache_hit_frac"], "frac"},
		"serve.cache_evictions":         {extra["serve.cache_evictions"], "evictions/job"},
		"serve.planner_runs":            {extra["serve.planner_runs"], "runs/job"},
		"serve.coalesced_frac":          {extra["serve.coalesced_frac"], "frac"},
		"serve.shed_frac":               {extra["serve.shed_frac"], "frac"},
		"serve.server_plan_ms":          {extra["serve.server_plan_ms"], "ms"},
	}
	shares := map[string]float64{}
	for n := range ls {
		shares[n] = share(n)
	}
	return m, shares
}

// finite makes a value printable as JSON: a percentile that lands on a
// failed job is infinite, and prints as the largest float64.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}

// cpuModel names the processor for the run's metadata.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
