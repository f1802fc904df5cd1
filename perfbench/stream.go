package main

import (
	"fmt"
	"time"

	"paralleltape/internal/metrics"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/spans"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/trace"
)

// The request-stream and chaos-trace workloads: the quick-scale fig6
// α=0.3 workload, placed once per scheme in set-up, then served as a long
// Submit stream per scheme, pass after pass. A pass resets each scheme's
// System and submits the same drawn requests, so every pass must
// reproduce the first bit for bit. chaos-trace runs the same under the
// chaos exhibit's "mtbf 2500s" fault profile with event recording on, and
// analyses each scheme's recorded stream with spans.Build and
// spans.Aggregate.

const (
	// streamRequests is the request-stream length per scheme per pass.
	streamRequests = 4000
	// chaosRequests is the chaos-trace length per scheme per pass; each
	// request records about 80 events.
	chaosRequests = 1000
	// chaosRetryBackoff is the chaos exhibit's retry backoff (simulated s).
	chaosRetryBackoff = 30
	// roundPasses is how many passes an untraced run times together:
	// about half a second of work, so that on chaos-trace every round
	// spans several GC cycles and a fast round still pays for them.
	roundPasses = 5
)

// streamSystem is one scheme's placement and simulator.
type streamSystem struct {
	scheme placement.Scheme
	pr     *placement.Result
	sys    *tapesys.System
	buf    *trace.Buffer // event recording (chaos-trace only)
	ms     []tapesys.RequestMetrics
	ref    *metrics.SessionStats // the first pass's stats
	events int                   // events the first pass recorded
}

// streamInputs is a stream workload's set-up product.
type streamInputs struct {
	chaos        bool
	w            *model.Workload
	reqs         []*model.Request
	systems      []*streamSystem
	clusterAlloc uint64
	tapesUsed    int
}

func (in *streamInputs) close() {
	for _, s := range in.systems {
		_ = s.sys.Close() // a single-engine System holds no workers; Close cannot fail
	}
}

// streamSetUp generates the workload, clusters it, places it with the
// three schemes, builds one System per scheme, and draws the requests.
func streamSetUp(tr *tracer, seed uint64, chaos bool) (*streamInputs, error) {
	cfg := streamConfig(seed)
	ws, err := alphaWorkloads(tr, cfg, []float64{streamAlpha})
	if err != nil {
		return nil, err
	}
	in := &streamInputs{chaos: chaos, w: ws[0]}
	var a0 uint64
	if tr.on {
		a0 = allocBytes()
	}
	cl, err := clusterRun(tr, in.w)
	if tr.on {
		in.clusterAlloc = allocBytes() - a0
	}
	if err != nil {
		return nil, err
	}
	n, opts := streamRequests, tapesys.Options{}
	if chaos {
		n = chaosRequests
		opts = tapesys.Options{RetryBackoff: chaosRetryBackoff, Faults: chaosProfile(cfg.Seed)}
	}
	for _, sch := range threeSchemes(cfg, cl) {
		pr, err := place(tr, sch, in.w, cfg)
		if err != nil {
			in.close()
			return nil, err
		}
		in.tapesUsed += pr.TapesUsed
		id := tr.begin(spNewSystem, -1)
		sys, err := tapesys.NewWithOptions(cfg.HW, pr, opts)
		tr.end(id)
		if err != nil {
			in.close()
			return nil, err
		}
		s := &streamSystem{scheme: sch, pr: pr, sys: sys, ms: make([]tapesys.RequestMetrics, n)}
		if chaos {
			s.buf = sys.EnableTrace(0)
		}
		in.systems = append(in.systems, s)
	}
	if in.reqs, err = drawRequests(tr, in.w, cfg.Seed, 0, n); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// passStats accumulates what the passes measure besides wall time.
type passStats struct {
	measureAlloc bool   // bracket untraced Submit loops (traced runs only)
	submitAlloc  uint64 // heap bytes allocated inside untraced Submit loops
	allocated    int    // Submit calls those bytes cover
	events       int    // recorded trace events
}

// pass serves every scheme's request stream once and checks the output.
// Each request is one checked operation.
func (in *streamInputs) pass(tr *tracer, out *outcome, st *passStats, req *int64) {
	for _, s := range in.systems {
		id := tr.begin(spReset, -1)
		err := s.sys.Reset(s.pr)
		tr.end(id)
		if err != nil {
			out.check(fmt.Sprintf("%s: reset: %v", s.scheme.Name(), err))
			continue
		}
		if s.buf != nil {
			s.buf.Reset()
		}
		msgs := make([]string, len(in.reqs))
		measure := st.measureAlloc && !tr.on
		var a0 uint64
		if measure {
			a0 = allocBytes()
		}
		for i, r := range in.reqs {
			id := tr.begin(spSubmit, *req)
			m, err := s.sys.Submit(r)
			tr.end(id)
			*req++
			s.ms[i] = m
			switch {
			case err != nil:
				msgs[i] = fmt.Sprintf("%s request %d: %v", s.scheme.Name(), i, err)
			case in.chaos:
				msgs[i] = checkFaultyRequest(in.w, r, m)
			default:
				msgs[i] = checkHealthyRequest(in.w, r, m)
			}
		}
		if measure {
			st.submitAlloc += allocBytes() - a0
			st.allocated += len(in.reqs)
		}
		id = tr.begin(spAggregate, -1)
		stats := metrics.AggregateSession(s.ms)
		tr.end(id)
		events := 0
		if s.buf != nil {
			events = len(s.buf.Events)
			st.events += events
			in.analyse(tr, s, msgs)
		}
		batch := ""
		if s.ref == nil {
			s.ref, s.events = &stats, events
		} else if d := sameBits(stats, *s.ref); d != "" {
			batch = fmt.Sprintf("%s: pass differs from the first: Stats%s", s.scheme.Name(), d)
		} else if events != s.events {
			batch = fmt.Sprintf("%s: pass recorded %d events, the first %d", s.scheme.Name(), events, s.events)
		}
		for _, msg := range msgs {
			if msg == "" {
				msg = batch
			}
			out.check(msg)
		}
	}
}

// analyse reconstructs the span trees of one scheme's recorded stream and
// checks them against Submit's metrics, filling msgs for requests that
// fail.
func (in *streamInputs) analyse(tr *tracer, s *streamSystem, msgs []string) {
	id := tr.begin(spSpansBuild, -1)
	sess, err := spans.Build(s.buf.Events)
	tr.end(id)
	if err != nil {
		for i := range msgs {
			if msgs[i] == "" {
				msgs[i] = fmt.Sprintf("%s: spans.Build: %v", s.scheme.Name(), err)
			}
		}
		return
	}
	id = tr.begin(spSpansAgg, -1)
	bd := spans.Aggregate(sess)
	tr.end(id)
	for i, msg := range checkSpanWalls(sess, s.ms) {
		if msgs[i] == "" && msg != "" {
			msgs[i] = s.scheme.Name() + ": " + msg
		}
	}
	if bd.Requests != len(s.ms) {
		for i := range msgs {
			if msgs[i] == "" {
				msgs[i] = fmt.Sprintf("%s: breakdown aggregates %d requests, %d submitted", s.scheme.Name(), bd.Requests, len(s.ms))
			}
		}
	}
}

func runRequestStream(p runParams, out *outcome) error { return runStream(p, out, false) }

func runChaosTrace(p runParams, out *outcome) error { return runStream(p, out, true) }

func runStream(p runParams, out *outcome, chaos bool) error {
	var in *streamInputs
	setupS, setupFrom, err := setUp(out.tr, func() error {
		if in != nil {
			in.close()
		}
		var err error
		in, err = streamSetUp(out.tr, p.seed, chaos)
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	tr := out.tr
	setupProf := tr.profileSince(setupFrom)
	traced := tr.on

	// An untraced run times rounds of roundPasses passes and reports a fast
	// round (see fastWall). In a traced run, single passes alternate between
	// tracing off (even) and on (odd), so the overhead compares passes of
	// one process; per-layer figures come from the traced passes.
	perIter := roundPasses
	if traced {
		perIter = 1
	}
	st := passStats{measureAlloc: traced}
	var walls, tracedWalls, peaks []float64
	var req int64
	from := len(tr.spans)
	h0 := sampleHost()
	start := time.Now()
	var last time.Duration
	for i := 0; another(start, p.seconds, i, 2, last); i++ {
		tr.on = traced && i%2 == 1
		t0 := time.Now()
		rss := startRSS()
		it := tr.begin(spIteration, -1)
		for range perIter {
			in.pass(tr, out, &st, &req)
		}
		tr.end(it)
		last = time.Since(t0)
		peaks = append(peaks, rss.stopMB())
		if tr.on {
			tracedWalls = append(tracedWalls, tr.spans[it].seconds())
		} else {
			walls = append(walls, last.Seconds()/float64(perIter))
		}
	}
	h1 := sampleHost()
	tr.on = traced
	passes := (len(walls) + len(tracedWalls)) * perIter
	pb := []metrics.SessionStats{*in.systems[parallelBatchIndex].ref}

	if !traced {
		wall := fastWall(walls)
		out.set("setup_s", setupS, "s")
		out.set("wall_s", wall, "s")
		out.set("req_per_s", float64(len(in.systems)*len(in.reqs))/wall, "1/s")
		if err := setPeakRSS(out, peaks); err != nil {
			return err
		}
		setSimEndToEnd(out, pb)
		return nil
	}
	var tracedSum float64
	for _, w := range tracedWalls {
		tracedSum += w
	}
	setLayerMetrics(out, setupProf, tr.profileSince(from), len(tracedWalls), tracedSum, median(tracedWalls), median(walls))
	out.set("experiments.busy_s", 0, "s")
	out.set("experiments.cores_busy", 0, "s/s")
	out.set("experiments.runs", 0, "count")
	out.set("cluster.objects", float64(in.w.NumObjects()), "count")
	out.set("cluster.alloc_mb", float64(in.clusterAlloc)/1e6, "MB")
	out.set("placement.tapes_used", float64(in.tapesUsed)/float64(len(in.systems)), "count")
	out.set("tapesys.alloc_b_per_submit", float64(st.submitAlloc)/float64(st.allocated), "B")
	setSimLayer(out, pb)
	setGC(out, h0, h1, passes)
	requests := float64(len(in.systems) * len(in.reqs))
	out.set("trace.events", float64(st.events)/float64(passes), "count")
	out.set("trace.events_per_req", float64(st.events)/float64(passes)/requests, "count")
	spansReqs := 0.0
	if chaos {
		spansReqs = requests
	}
	out.set("spans.requests", spansReqs, "count")
	return nil
}
