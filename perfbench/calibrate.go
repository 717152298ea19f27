package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"tsplit/internal/obs"
)

// The host this benchmark runs on is a shared virtual machine, and it
// is slow or fast by turns in two ways. Its virtual CPUs are
// descheduled for stretches ("steal" time, reported by the kernel),
// and while they run, neighbours compete for caches and memory, so
// the same job runs 30% slower from one minute to the next. The
// benchmark corrects both: it takes the stolen time out of every
// interval it measures, and it scales what remains by the speed of a
// fixed calibration kernel, run every calEvery between jobs, to what
// it would be on a machine where the kernel takes nominalKernel. The
// kernel is the benchmark's own code and does not allocate, so a
// change to the program, its allocation included, moves the corrected
// timings as it moves the raw ones; the raw figures are printed
// alongside.
const nominalKernel = 6500 * time.Microsecond

// calEvery is the longest stretch of jobs between two calibrations.
const calEvery = 250 * time.Millisecond

// now is the benchmark's clock: the module's one sanctioned wall-clock
// source, which its determinism lint allows.
var now = obs.Wall

func since(t time.Time) time.Duration { return now().Sub(t) }

// userHz is the unit of /proc/stat's counters on Linux.
const userHz = 100

// stolen returns the time the host has taken from this machine's
// virtual CPUs since boot, divided by their number: the share one
// running thread lost. It is zero where the kernel does not report it.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHz / time.Duration(runtime.NumCPU())
}

// calN is the kernel's working-set size in elements.
const calN = 1 << 15

// calMem is the kernel's working memory, allocated at its first run.
// The kernel neither allocates nor stores pointers, so its time
// depends on the host alone: not on how much the program allocates,
// nor on whether a collection the program started is marking while it
// runs. releaseCalibration frees it before the live heap is read.
var calMem *calState

type calState struct {
	m    map[int64]int64
	next []int32 // a single cycle through calN slots, chased by index
	val  []int64
	xs   []float64
}

func releaseCalibration() { calMem = nil }

// calCycle links calN slots into one seeded random cycle (Sattolo's
// algorithm), so chasing it misses the caches as a pointer chase does.
func calCycle() []int32 {
	next := make([]int32, calN)
	for i := range next {
		next[i] = int32(i)
	}
	r := newRNG(1)
	for i := calN - 1; i > 0; i-- {
		j := r.intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

var calSink int64

// kernel is the calibration workload: map updates, a chase through
// memory in random order, and a sort, over memory set aside in calMem.
func kernel() {
	if calMem == nil {
		calMem = &calState{
			m:    make(map[int64]int64, calN/2),
			next: calCycle(),
			val:  make([]int64, calN),
			xs:   make([]float64, calN),
		}
	}
	c := calMem
	clear(c.m)
	x := uint64(88172645463325252)
	for i := 0; i < calN; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.m[int64(x%(calN/2))] += int64(i)
		c.val[i] = int64(x)
		c.xs[i] = float64(x % 1000003)
	}
	slices.Sort(c.xs)
	for i, k := 0, int32(0); i < calN; i++ {
		calSink += c.val[k] & 1
		k = c.next[k]
	}
	calSink += int64(len(c.m)) + int64(c.xs[calN/2])
}

// calibrator samples the host's speed between jobs. Its samples are
// spread evenly over a phase, so their mean, with stolen time taken
// out, is the phase's speed. It is used by one goroutine at a time.
type calibrator struct {
	last   time.Time
	total  time.Duration // kernel time, stolen time excluded
	n      int
	raw    []float64     // kernel times as measured, ms
	spent  time.Duration // time spent calibrating, kept out of the phase's time
	allocB uint64        // bytes calibrating allocated (reading /proc/stat), kept out of the phase's
}

// run times the kernel once.
func (c *calibrator) run() {
	var m0, m1 runtime.MemStats
	start := now()
	runtime.ReadMemStats(&m0)
	s0 := stolen()
	t0 := now()
	kernel()
	d := since(t0)
	c.total += max(d-(stolen()-s0), 0)
	c.n++
	c.raw = append(c.raw, float64(d)/1e6)
	runtime.ReadMemStats(&m1)
	c.allocB += m1.TotalAlloc - m0.TotalAlloc
	c.last = now()
	c.spent += c.last.Sub(start)
}

// maybe runs the kernel if calEvery has passed since it last ran.
func (c *calibrator) maybe() {
	if since(c.last) >= calEvery {
		c.run()
	}
}

// factor turns a steal-free time measured while c sampled into
// nominal time.
func (c *calibrator) factor() float64 {
	return float64(nominalKernel) * float64(c.n) / float64(c.total)
}
