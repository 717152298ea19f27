package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent and Job are -1 when absent.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Job    int32  `json:"job"`
	// AllocStart/AllocEnd read the runtime's cumulative heap-allocation
	// counter. It advances when an allocation cache is refilled, so
	// per-span figures are an attribution accurate to a few kilobytes
	// per size class, not an exact count.
	AllocStart uint64 `json:"alloc_start"`
	AllocEnd   uint64 `json:"alloc_end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing; the timed phases run with one.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: now(), counts: map[string]int64{}}
}

func heapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// ctx is the caller's position in the span tree: the open span that
// new spans nest under, and the job they belong to.
type ctx struct {
	tr  *tracer
	job int32
	id  int32
}

// begin opens a child span of c named name.
func (c ctx) begin(name string) ctx {
	t := c.tr
	if t == nil {
		return c
	}
	s := span{Name: name, Parent: c.id, Job: c.job, AllocStart: heapAllocBytes()}
	s.Start = int64(since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return ctx{tr: t, job: c.job, id: id}
}

// end closes the span c.begin opened.
func (c ctx) end() {
	t := c.tr
	if t == nil {
		return
	}
	end := int64(since(t.epoch))
	alloc := heapAllocBytes()
	t.mu.Lock()
	t.spans[c.id].End = end
	t.spans[c.id].AllocEnd = alloc
	t.mu.Unlock()
}

// count adds n to a named counter, recorded at the same boundary as
// the spans so ratios are measured where the work happens.
func (c ctx) count(name string, n int64) {
	t := c.tr
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// rootCtx is the context jobs start from: no open span.
func rootCtx(t *tracer, job int32) ctx { return ctx{tr: t, job: job, id: -1} }

// selfTimes returns, for each span, its duration minus the part of
// its interval covered by its children. Children are clipped to the
// parent's interval and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = s.Start
		for _, v := range ivs {
			if v.a < hi {
				v.a = hi
			}
			if v.b > v.a {
				covered += v.b - v.a
				hi = v.b
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfAllocs is selfTimes for allocated bytes: a span's allocation
// minus its children's, floored at zero.
func selfAllocs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += int64(s.AllocEnd - s.AllocStart)
		if s.Parent >= 0 {
			self[s.Parent] -= int64(s.AllocEnd - s.AllocStart)
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// layerStat aggregates one span name over the spans that belong to
// jobs.
type layerStat struct {
	calls     int64
	selfNs    int64
	selfAlloc int64
}

// layerStats groups job spans by name.
func layerStats(spans []span) map[string]*layerStat {
	self, alloc := selfTimes(spans), selfAllocs(spans)
	out := map[string]*layerStat{}
	for i, s := range spans {
		if s.Job < 0 {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layerStat{}
			out[s.Name] = l
		}
		l.calls++
		l.selfNs += self[i]
		l.selfAlloc += alloc[i]
	}
	return out
}

// writeSpans writes the spans as JSON lines under dir and returns the
// file's path.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = encodeSpans(f, t.spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}

// encodeSpans writes spans as JSON lines, each with its id and self
// time.
func encodeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	self := selfTimes(spans)
	for i, s := range spans {
		if err := enc.Encode(struct {
			ID int `json:"id"`
			span
			SelfNs int64 `json:"self_ns"`
		}{i, s, self[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
