package main

import (
	"bufio"
	"compress/gzip"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Span names. The part before the first dot is the layer the span's self
// time is charged to; "bench" is the benchmark's own code (iteration
// loops and output checks).
const (
	spIteration     = "bench.iteration"
	spByID          = "experiments.ByID"
	spGenerate      = "workload.Generate"
	spTargetBytes   = "workload.TargetMeanRequestBytes"
	spReplaceAlpha  = "workload.ReplaceAlpha"
	spRequestStream = "workload.RequestStream"
	spCluster       = "cluster.Run"
	spPlace         = "placement.Place"
	spNewSystem     = "tapesys.New"
	spReset         = "tapesys.Reset"
	spSubmit        = "tapesys.Submit"
	spClose         = "tapesys.Close"
	spAggregate     = "metrics.AggregateSession"
	spSpansBuild    = "spans.Build"
	spSpansAgg      = "spans.Aggregate"
)

// span is one recorded call into a layer. Times are nanoseconds since the
// tracer's epoch; parent is the index of the enclosing span, -1 at the
// root; req is the request id of a Submit span, -1 elsewhere.
type span struct {
	name       string
	parent     int32
	req        int64
	start, end int64
}

// tracer records spans in memory. The benchmark calls layers from one
// goroutine, so the innermost open span is the parent of the next one.
// A disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now()}
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, req int64) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// layerOf returns the layer a span name is charged to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// profile is the per-layer reduction of a set of spans.
type profile struct {
	self    map[string]float64 // layer → self seconds
	calls   map[string]int     // span name → count
	submits []float64          // Submit span durations, microseconds
}

// profileSince reduces the spans recorded since index from: each span's self
// time is its duration minus the time its direct children cover, charged
// to its layer.
func (t *tracer) profileSince(from int) profile {
	p := profile{self: make(map[string]float64), calls: make(map[string]int)}
	sp := t.spans[from:]
	child := make([]int64, len(sp))
	for i := range sp {
		if par := int(sp[i].parent) - from; par >= 0 {
			child[par] += sp[i].end - sp[i].start
		}
	}
	for i, s := range sp {
		d := s.end - s.start
		p.self[layerOf(s.name)] += float64(d-child[i]) / 1e9
		p.calls[s.name]++
		if s.name == spSubmit {
			p.submits = append(p.submits, float64(d)/1e3)
		}
	}
	return p
}

// writeFile writes every span as gzipped CSV (one row per span).
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriter(zw)
	bw.WriteString("id,parent,name,req,start_ns,end_ns\n")
	var b []byte
	for i, s := range t.spans {
		b = strconv.AppendInt(b[:0], int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, ',')
		b = append(b, s.name...)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.req, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, '\n')
		bw.Write(b)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostSample is a snapshot of the process's host-side counters.
type hostSample struct {
	wall     time.Time
	cpu      float64 // user+system CPU seconds
	gcCPU    float64 // cumulative GC CPU seconds
	gcCycles uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func sampleHost() hostSample {
	metrics.Read(runtimeSamples)
	return hostSample{
		wall:     time.Now(),
		cpu:      cpuSeconds(),
		gcCPU:    runtimeSamples[0].Value.Float64(),
		gcCycles: runtimeSamples[1].Value.Uint64(),
	}
}

// allocBytes reads the cumulative heap allocation counter. It stops the
// world, but unlike the runtime/metrics counter it is exact for small
// allocations still held in per-P caches; only traced runs call it, a few
// times per iteration.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// rssSampler samples the process's resident set size while an iteration
// runs and keeps the peak. The kernel's own high-water mark covers the
// whole process; sampling gives each iteration its own peak, so one
// iteration whose garbage collection ran late does not set the figure.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes; written by the sampling goroutine until done closes
}

// rssInterval is the sampling period.
const rssInterval = 2 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak = residentBytes()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.peak = max(s.peak, residentBytes())
				return
			case <-t.C:
				s.peak = max(s.peak, residentBytes())
			}
		}
	}()
	return s
}

// stopMB stops sampling, waits for the sampler to exit, and returns the
// peak in MB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// residentBytes reads the resident set size from /proc/self/statm; 0 when
// it cannot be read.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// median returns the median of xs (which it sorts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank percentile of xs (which it sorts).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}
