package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tsplit"
	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/experiments"
	"tsplit/internal/models"
	"tsplit/internal/sim"
)

// zooKey is one fixed zoo request of the serve mix.
type zooKey struct {
	path, model, device, policy string
	capGiB                      float64 // 0 = the device's memory
	status                      int     // the answer's expected HTTP status
}

func (k zooKey) capacity() int64 { return int64(k.capGiB * (1 << 30)) }

func (k zooKey) body() []byte {
	return []byte(fmt.Sprintf(`{"model":%q,"device":%q,"options":{"policy":%q,"capacity_bytes":%d}}`,
		k.model, k.device, k.policy, k.capacity()))
}

// servePlanKeys are the repeated /v1/plan keys: after set-up they are
// cache hits, which exercise only HTTP, JSON and the plan cache.
var servePlanKeys = []zooKey{
	{"/v1/plan", "bert-large", "P100", "tsplit", 6, 200},
	{"/v1/plan", "inceptionv4", "TITAN RTX", "tsplit", 3, 200},
	{"/v1/plan", "resnet101", "TITAN RTX", "tsplit", 3, 200},
	{"/v1/plan", "resnet50", "TITAN RTX", "tsplit", 2, 200},
	{"/v1/plan", "transformer", "TITAN RTX", "tsplit", 2.5, 200},
	{"/v1/plan", "vgg16", "TITAN RTX", "tsplit", 3.5, 200},
	{"/v1/plan", "vgg19", "TITAN RTX", "vdnn-all", 0, 200},
	{"/v1/plan", "transformer", "TITAN RTX", "checkpoints", 0, 200},
}

// servePeakKeys are the /v1/peak keys. Peak answers are never cached,
// so each one plans and replays the plan through PredictPeak. The last
// key cannot fit and must answer 422.
var servePeakKeys = []zooKey{
	{"/v1/peak", "bert-large", "P100", "tsplit", 6, 200},
	{"/v1/peak", "bert-large", "P100", "base", 0, 200},
	{"/v1/peak", "resnet50", "TITAN RTX", "tsplit", 2, 200},
	{"/v1/peak", "resnet50", "TITAN RTX", "base", 0, 200},
	{"/v1/peak", "transformer", "TITAN RTX", "tsplit", 2.5, 200},
	{"/v1/peak", "transformer", "TITAN RTX", "base", 0, 200},
	{"/v1/peak", "vgg16", "TITAN RTX", "tsplit", 1, 422},
}

// specBody is an inline random-graph request. The generated graphs
// are small, so they plan at the device's capacity.
func specBody(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"spec":{"seed":%d},"device":"P100"}`, seed))
}

// The request classes, and how many of each one block of the mix
// holds. Fresh spec requests miss and drive workload build, planning
// and eviction; repeats of the previous block's spec seeds must come
// back byte-identical from the cache.
const (
	classHit = iota
	classMiss
	classPeak

	blockLen     = 100
	blockFresh   = 15
	blockRepeats = 10
	blockPeaks   = 15
)

// request is one request of the seeded sequence.
type request struct {
	class int
	path  string
	body  []byte
	zoo   int    // index into servePlanKeys or servePeakKeys; -1 for spec
	spec  uint64 // spec seed, 0 for zoo requests
}

// answer is a response's status and bytes.
type answer struct {
	status int
	body   []byte
}

// serveCacheEntries bounds the server's plan cache. It is small enough
// that set-up fills it, so the cache holds the same number of plans,
// and the heap the same bytes, however long a run is.
const serveCacheEntries = 64

// specChecked bounds how many fresh spec answers a phase re-derives
// on a reference server after it ends.
const specChecked = 200

// serveMix is the planning-service workload: launchers that each wait
// for their plan, over loopback HTTP against tsplit.NewPlanServer.
type serveMix struct {
	seed uint64

	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	base   map[string]float64 // /metrics counters after set-up

	ref map[string]answer // set-up's answer per zoo request path and body

	mu     sync.Mutex
	blocks map[int][]request // the block being sent
	specs  map[uint64]answer // fresh spec answers the phase still needs
	lat    [3][]float64      // traced-phase latency per class, ms
}

func newServeMix(seed uint64) *serveMix {
	return &serveMix{seed: seed, ref: map[string]answer{}}
}

func (w *serveMix) workers() int { return 2 }

func (w *serveMix) passLen(int) int { return blockLen }

// specSeed is the inline graph seed of fresh spec slot k in block b.
// The top bit keeps it apart from set-up's warm-up seeds.
func (w *serveMix) specSeed(b, k int) uint64 {
	return newRNG(w.seed^uint64(b)<<20^uint64(k)).next() | 1<<63
}

// block returns block b of the seeded request sequence. Zoo keys are
// dealt round-robin from a seeded permutation so every key's share is
// exact over a few blocks; the block's order is shuffled.
func (w *serveMix) block(b int) []request {
	r := newRNG(w.seed)
	planPerm, peakPerm := r.perm(len(servePlanKeys)), r.perm(len(servePeakKeys))
	reqs := make([]request, 0, blockLen)
	for k := 0; k < blockFresh; k++ {
		s := w.specSeed(b, k)
		reqs = append(reqs, request{class: classMiss, path: "/v1/plan", body: specBody(s), zoo: -1, spec: s})
	}
	if b > 0 {
		for k := 0; k < blockRepeats; k++ {
			s := w.specSeed(b-1, k)
			reqs = append(reqs, request{class: classHit, path: "/v1/plan", body: specBody(s), zoo: -1, spec: s})
		}
	}
	for k := 0; k < blockPeaks; k++ {
		z := peakPerm[(b*blockPeaks+k)%len(servePeakKeys)]
		reqs = append(reqs, request{class: classPeak, path: "/v1/peak", body: servePeakKeys[z].body(), zoo: z})
	}
	for g := b * blockLen; len(reqs) < blockLen; g++ {
		z := planPerm[g%len(servePlanKeys)]
		reqs = append(reqs, request{class: classHit, path: "/v1/plan", body: servePlanKeys[z].body(), zoo: z})
	}
	order := newRNG(w.seed ^ uint64(b+1)*0x9e3779b97f4a7c15).perm(blockLen)
	out := make([]request, blockLen)
	for i, j := range order {
		out[i] = reqs[j]
	}
	return out
}

// setUp starts a fresh server on a loopback port and fills it.
func (w *serveMix) setUp() error {
	w.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: tsplit.NewPlanServer(tsplit.PlanServerConfig{CacheEntries: serveCacheEntries})}
	w.served = make(chan error, 1)
	go func(srv *http.Server) { w.served <- srv.Serve(ln) }(w.srv)
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.workers()}}
	w.mu.Lock()
	w.specs = map[uint64]answer{}
	w.lat = [3][]float64{}
	w.mu.Unlock()
	if err := w.fill(); err != nil {
		return err
	}
	w.base, err = w.scrape()
	return err
}

// fill sends serveCacheEntries warm-up spec requests, which fill the
// plan cache and the workload cache, and then every zoo request, which
// builds the zoo workloads and the simulator pools and leaves the zoo
// plans cached. Every answer must equal the first one recorded for
// its request, and the zoo answers must have their expected status.
func (w *serveMix) fill() error {
	type req struct {
		path   string
		body   []byte
		status int
	}
	var reqs []req
	for s := uint64(1); s <= serveCacheEntries; s++ {
		reqs = append(reqs, req{"/v1/plan", specBody(s), http.StatusOK})
	}
	for _, k := range append(append([]zooKey(nil), servePlanKeys...), servePeakKeys...) {
		reqs = append(reqs, req{k.path, k.body(), k.status})
	}
	for _, r := range reqs {
		a, err := w.post(r.path, r.body)
		if err != nil {
			return err
		}
		if a.status != r.status {
			return fmt.Errorf("%s %s: status %d, want %d: %s", r.path, r.body, a.status, r.status, a.body)
		}
		if prev, ok := w.ref[r.path+string(r.body)]; ok && !bytes.Equal(prev.body, a.body) {
			return fmt.Errorf("%s %s: answer differs from the first one", r.path, r.body)
		}
		w.ref[r.path+string(r.body)] = a
	}
	return nil
}

// request returns request i of block p, building each block once.
func (w *serveMix) request(p, i int) request {
	w.mu.Lock()
	defer w.mu.Unlock()
	b, ok := w.blocks[p]
	if !ok {
		b = w.block(p)
		w.blocks = map[int][]request{p: b}
	}
	return b[i]
}

func (w *serveMix) post(path string, body []byte) (answer, error) {
	resp, err := w.client.Post(w.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	return answer{resp.StatusCode, b}, nil
}

func (w *serveMix) do(p, i int, c ctx) error {
	req := w.request(p, i)
	sp := c.begin("serve.request")
	t0 := now()
	a, err := w.post(req.path, req.body)
	ms := float64(since(t0)) / 1e6
	sp.end()
	if err != nil {
		return err
	}
	if c.tr != nil {
		w.mu.Lock()
		w.lat[req.class] = append(w.lat[req.class], ms)
		w.mu.Unlock()
	}
	if req.zoo >= 0 {
		if want := w.ref[req.path+string(req.body)]; a.status != want.status || !bytes.Equal(a.body, want.body) {
			return fmt.Errorf("%s %s: status %d, body differs from set-up's answer", req.path, req.body, a.status)
		}
		return nil
	}
	// The generated graphs are small enough to plan at the device's
	// capacity, so every spec request must succeed.
	if a.status != http.StatusOK {
		return fmt.Errorf("spec seed %d: status %d: %s", req.spec, a.status, a.body)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if req.class == classHit {
		want, ok := w.specs[req.spec]
		if !ok {
			return fmt.Errorf("spec seed %d repeated before its first answer", req.spec)
		}
		if a.status != want.status || !bytes.Equal(a.body, want.body) {
			return fmt.Errorf("spec seed %d: repeat answer differs from the first", req.spec)
		}
		return nil
	}
	w.specs[req.spec] = a
	// Keep only what a later check needs: the first blocks' answers
	// for check, and the previous block's for its repeats.
	for _, k := range w.staleSpecs(p) {
		delete(w.specs, k)
	}
	return nil
}

// staleSpecs lists the fresh seeds of block p-2, once it is past the
// blocks check re-derives. Callers hold mu.
func (w *serveMix) staleSpecs(p int) []uint64 {
	b := p - 2
	if b < 0 || b*blockFresh < specChecked {
		return nil
	}
	var out []uint64
	for k := 0; k < blockFresh; k++ {
		out = append(out, w.specSeed(b, k))
	}
	return out
}

// check re-derives the phase's first fresh spec answers on a fresh
// reference server, outside HTTP, and compares them byte for byte.
// It then fills the server again, so every run ends with the same
// plans and workloads cached, whatever its seed.
func (w *serveMix) check(ctx) (int, error) {
	if err := w.fill(); err != nil {
		return 0, err
	}
	refSrv := tsplit.NewPlanServer(tsplit.PlanServerConfig{})
	w.mu.Lock()
	defer w.mu.Unlock()
	failed := 0
	for n := 0; n < specChecked; n++ {
		s := w.specSeed(n/blockFresh, n%blockFresh)
		got, ok := w.specs[s]
		if !ok {
			break
		}
		rec := httptest.NewRecorder()
		refSrv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(specBody(s))))
		if rec.Code != got.status || !bytes.Equal(rec.Body.Bytes(), got.body) {
			failed++
		}
	}
	w.specs = map[uint64]answer{}
	return failed, nil
}

// outputs re-derives every zoo answer outside the server — plan,
// export, simulate — and computes the throughput and peak error from
// it. A served answer that disagrees with its derivation is a failed
// job. The scale gain comes from the table searches (searchedGain).
func (w *serveMix) outputs(c ctx) (simOutputs, int, error) {
	prep := map[string]*experiments.Prepared{}
	prepare := func(k zooKey) (*experiments.Prepared, error) {
		id := k.model + "|" + k.device
		if p := prep[id]; p != nil {
			return p, nil
		}
		dev, err := device.ByName(k.device)
		if err != nil {
			return nil, err
		}
		p, err := experiments.Prepare(k.model, models.Config{}, dev)
		prep[id] = p
		return p, err
	}
	plan := func(k zooKey, p *experiments.Prepared) (*core.Plan, error) {
		if k.policy == "tsplit" {
			return core.NewPlanner(p.G, p.Sched, p.Lv, p.Prof, p.Dev, core.Options{Capacity: k.capacity()}).Plan()
		}
		return baselines.Registry[k.policy](baselines.Inputs{G: p.G, Sched: p.Sched, Lv: p.Lv, Prof: p.Prof, Dev: p.Dev})
	}
	simOpts := func(k zooKey) sim.Options {
		return sim.Options{Capacity: k.capacity(), Recompute: sim.LRURecompute}
	}
	failed := 0
	wrong := func(k zooKey, format string, args ...any) {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %s\n", k.path, k.body(), fmt.Sprintf(format, args...))
	}

	var thr []float64
	for _, k := range servePlanKeys {
		p, err := prepare(k)
		if err != nil {
			return simOutputs{}, 0, err
		}
		pl, err := plan(k, p)
		if err != nil {
			wrong(k, "served 200, but plans outside the server fail: %v", err)
			continue
		}
		var want, compact bytes.Buffer
		if err := core.ExportJSON(&want, pl); err != nil {
			return simOutputs{}, 0, err
		}
		if err := json.Compact(&compact, want.Bytes()); err != nil {
			return simOutputs{}, 0, err
		}
		var served struct {
			Plan json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(w.ref[k.path+string(k.body())].body, &served); err != nil || !bytes.Equal(compact.Bytes(), served.Plan) {
			wrong(k, "served plan differs from the plan derived outside the server")
			continue
		}
		res, err := experiments.Simulate(p, pl, simOpts(k))
		if err != nil {
			wrong(k, "served plan does not run: %v", err)
			continue
		}
		thr = append(thr, p.Prof.Total()/res.Time)
	}

	var errs []float64
	for _, k := range servePeakKeys {
		p, err := prepare(k)
		if err != nil {
			return simOutputs{}, 0, err
		}
		pl, err := plan(k, p)
		if k.status != http.StatusOK {
			if err == nil {
				wrong(k, "served %d, but plans outside the server", k.status)
			}
			continue
		}
		if err != nil {
			wrong(k, "served 200, but plans outside the server fail: %v", err)
			continue
		}
		sp := c.begin("sim.peak")
		peak, err := sim.PredictPeak(p.G, p.Sched, p.Lv, pl, p.Dev, simOpts(k))
		sp.end()
		var served struct {
			Sim     int64 `json:"simulated_peak_bytes"`
			Planner int64 `json:"planner_peak_bytes"`
		}
		if jerr := json.Unmarshal(w.ref[k.path+string(k.body())].body, &served); err != nil || jerr != nil ||
			served.Sim != peak || served.Planner != pl.PredictedPeak {
			wrong(k, "served peaks %d/%d, derived %d/%d (%v)", served.Sim, served.Planner, peak, pl.PredictedPeak, err)
			continue
		}
		if k.policy == "tsplit" {
			errs = append(errs, math.Abs(float64(served.Planner-served.Sim))/float64(served.Sim))
		}
	}
	gain, wrongCells := searchedGain(device.TitanRTX)
	return simOutputs{scaleGain: gain, throughput: geomean(thr), peakPredError: mean(errs)}, failed + wrongCells, nil
}

// scrape reads the server's counters from GET /metrics, summing
// over labels.
func (w *serveMix) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.HasSuffix(name[:i], "_bucket") {
				continue
			}
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// layerMetrics reports the serving layer from the server's own
// counters, taken over the traced phase, and the phase's latency per
// request class.
func (w *serveMix) layerMetrics(jobs int) (map[string]float64, error) {
	now, err := w.scrape()
	if err != nil {
		return nil, err
	}
	d := func(n string) float64 { return now[n] - w.base[n] }
	hits, misses := d("tsplit_serve_cache_hits_total"), d("tsplit_serve_cache_misses_total")
	w.mu.Lock()
	defer w.mu.Unlock()
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(sortedCopy(xs), 0.5).Value
	}
	return map[string]float64{
		"serve.hit_ms":          p50(w.lat[classHit]),
		"serve.miss_ms":         p50(w.lat[classMiss]),
		"serve.peak_ms":         p50(w.lat[classPeak]),
		"serve.cache_hit_frac":  ratio(hits, hits+misses),
		"serve.cache_evictions": d("tsplit_serve_cache_evictions_total") / float64(jobs),
		"serve.planner_runs":    d("tsplit_serve_planner_runs_total") / float64(jobs),
		"serve.coalesced_frac":  ratio(d("tsplit_serve_coalesced_total"), misses),
		"serve.shed_frac":       d("tsplit_serve_shed_total") / float64(jobs),
		"serve.server_plan_ms":  1000 * ratio(d("tsplit_serve_plan_seconds_sum"), d("tsplit_serve_plan_seconds_count")),
	}, nil
}

// close shuts the server down and waits for it to stop serving.
func (w *serveMix) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx) // a straggling connection is closed by Close below
	_ = w.srv.Close()
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: server: %v\n", err)
	}
	w.client.CloseIdleConnections()
	w.srv = nil
}
