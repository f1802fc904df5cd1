package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"paralleltape/internal/experiments"
	"paralleltape/internal/metrics"
	"paralleltape/internal/model"
	"paralleltape/internal/tapesys"
)

// The fig6-sweep workload: the Figure 6 exhibit, 6 α points × 3 schemes,
// run through experiments.ByID exactly as tapebench -experiment fig6 runs
// it. Clustering and the runner do nearly all of its work.

// fig6Inputs is what one fig6 sweep consumes: a workload per α point and,
// per α point and request stream, the requests the runner draws.
type fig6Inputs struct {
	cfg       experiments.Config
	workloads []*model.Workload
	draws     [][][]*model.Request // [α][stream] → requests
	bytes     []int64              // [α] → payload of all draws
}

// fig6SetUp generates the sweep's inputs for cfg: the workload of every α
// point and the requests each of its runs draws.
func fig6SetUp(tr *tracer, cfg experiments.Config) (*fig6Inputs, error) {
	ws, err := alphaWorkloads(tr, cfg, fig6Alphas)
	if err != nil {
		return nil, err
	}
	in := &fig6Inputs{cfg: cfg, workloads: ws}
	for _, w := range ws {
		perAlpha := make([][]*model.Request, cfg.Seeds)
		var bytes int64
		for si := range perAlpha {
			rs, err := drawRequests(tr, w, cfg.Seed, si, cfg.Requests)
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				bytes += w.RequestBytes(r)
			}
			perAlpha[si] = rs
		}
		in.draws = append(in.draws, perAlpha)
		in.bytes = append(in.bytes, bytes)
	}
	return in, nil
}

func runFig6Sweep(p runParams, out *outcome) error {
	var in *fig6Inputs
	setupS, setupFrom, err := setUp(out.tr, func() error {
		var err error
		in, err = fig6SetUp(out.tr, fig6Config(p.seed))
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if p.traced {
		return fig6Traced(in, setupFrom, out)
	}
	start := time.Now()
	var walls, peaks []float64
	var ref []experiments.Row
	var last time.Duration
	for i := 0; another(start, p.seconds, i, 1, last); i++ {
		// Start every sweep from the same heap with freed memory returned
		// to the OS, so each sweep's peak RSS is its own.
		debug.FreeOSMemory()
		rss := startRSS()
		t0 := time.Now()
		rep, err := experiments.ByID("fig6", in.cfg)
		last = time.Since(t0)
		peaks = append(peaks, rss.stopMB())
		if err != nil {
			out.check(fmt.Sprintf("sweep %d: %v", i, err))
			break
		}
		walls = append(walls, last.Seconds())
		checkFig6Rows(out, in, rep.Rows, ref, "sweep")
		if ref == nil {
			ref = rep.Rows
		}
	}
	if len(walls) == 0 {
		return nil
	}
	wall := fastWall(walls)
	out.set("setup_s", setupS, "s")
	out.set("wall_s", wall, "s")
	out.set("req_per_s", float64(len(fig6Alphas)*3*in.cfg.Requests*in.cfg.Seeds)/wall, "1/s")
	if err := setPeakRSS(out, peaks); err != nil {
		return err
	}
	setSimEndToEnd(out, parallelBatchStats(ref))
	return nil
}

// checkFig6Rows checks every row of one sweep against the inputs and,
// when ref is non-nil, against a reference sweep bit for bit. Each row is
// one checked operation.
func checkFig6Rows(out *outcome, in *fig6Inputs, rows, ref []experiments.Row, what string) {
	want := len(fig6Alphas) * 3
	if len(rows) != want {
		for i := len(rows); i < want; i++ {
			out.check(fmt.Sprintf("%s: row %d missing (%d rows)", what, i, len(rows)))
		}
	}
	for i, row := range rows {
		msg := ""
		if i >= want {
			msg = fmt.Sprintf("%s: unexpected row %d", what, i)
		} else if msg = checkFig6Row(in, i, row); msg == "" && ref != nil {
			msg = checkSameRow(i, row, ref[i])
		}
		if msg != "" {
			msg = what + ": " + msg
		}
		out.check(msg)
	}
}

// parallelBatchStats returns the parallel-batch rows' stats of a fig6
// report, one per α point.
func parallelBatchStats(rows []experiments.Row) []metrics.SessionStats {
	var out []metrics.SessionStats
	for i, r := range rows {
		if i%3 == parallelBatchIndex {
			out = append(out, r.Stats)
		}
	}
	return out
}

// replayStats is what a replay measures besides its rows.
type replayStats struct {
	submits      int
	submitAlloc  uint64 // heap bytes allocated inside the Submit loops
	clusterAlloc uint64 // heap bytes allocated inside cluster.Run
	clusterCalls int
	objects      int // objects clustered, summed over calls
	placements   int
	tapesUsed    int // summed over placements
}

// replayFig6 re-runs the fig6 sweep sequentially from the layers' public
// functions: per α point one clustering, per scheme one placement and one
// System serving every request stream (Reset between streams), and the
// session statistics of the pooled requests — the runner's exact recipe,
// so the rows must equal ByID's bit for bit. Submit errors are counted as
// failed operations.
func replayFig6(tr *tracer, in *fig6Inputs, out *outcome, st *replayStats) ([]experiments.Row, error) {
	var rows []experiments.Row
	var req int64
	for ai, w := range in.workloads {
		a0 := allocBytes()
		cl, err := clusterRun(tr, w)
		st.clusterAlloc += allocBytes() - a0
		st.clusterCalls++
		st.objects += w.NumObjects()
		if err != nil {
			return nil, err
		}
		for _, sch := range threeSchemes(in.cfg, cl) {
			row := experiments.Row{Label: fmt.Sprintf("alpha=%.1f", fig6Alphas[ai]), Scheme: sch.Name(), X: fig6Alphas[ai]}
			pr, err := place(tr, sch, w, in.cfg)
			if err != nil {
				return nil, err
			}
			st.placements++
			st.tapesUsed += pr.TapesUsed
			row.TapesUsed = pr.TapesUsed
			ms := make([]tapesys.RequestMetrics, 0, in.cfg.Requests*in.cfg.Seeds)
			id := tr.begin(spNewSystem, -1)
			sys, err := tapesys.New(in.cfg.HW, pr)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			for si, rs := range in.draws[ai] {
				if si > 0 {
					id := tr.begin(spReset, -1)
					err := sys.Reset(pr)
					tr.end(id)
					if err != nil {
						return nil, err
					}
				}
				a0 := allocBytes()
				for _, r := range rs {
					id := tr.begin(spSubmit, req)
					m, err := sys.Submit(r)
					tr.end(id)
					req++
					if err != nil {
						out.check(fmt.Sprintf("replay α=%.1f %s stream %d: %v", fig6Alphas[ai], sch.Name(), si, err))
						continue
					}
					ms = append(ms, m)
				}
				st.submitAlloc += allocBytes() - a0
				st.submits += len(rs)
			}
			id = tr.begin(spClose, -1)
			_ = sys.Close() // a single-engine System holds no workers; Close cannot fail
			tr.end(id)
			id = tr.begin(spAggregate, -1)
			row.Stats = metrics.AggregateSession(ms)
			tr.end(id)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// fig6Traced is the traced fig6-sweep run: one ByID sweep for the
// runner's parallelism and the reference rows, then the sequential replay
// twice, untraced and traced, both checked against the reference.
func fig6Traced(in *fig6Inputs, setupFrom int, out *outcome) error {
	tr := out.tr
	setupProf := tr.profileSince(setupFrom)

	h0 := sampleHost()
	id := tr.begin(spByID, -1)
	rep, err := experiments.ByID("fig6", in.cfg)
	tr.end(id)
	h1 := sampleHost()
	if err != nil {
		return fmt.Errorf("ByID: %w", err)
	}
	checkFig6Rows(out, in, rep.Rows, nil, "ByID")

	tr.on = false
	var untraced replayStats
	t0 := time.Now()
	rows, err := replayFig6(tr, in, out, &untraced)
	wallUntraced := time.Since(t0).Seconds()
	tr.on = true
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	checkFig6Rows(out, in, rows, rep.Rows, "untraced replay")

	from := len(tr.spans)
	var traced replayStats
	it := tr.begin(spIteration, -1)
	rows, err = replayFig6(tr, in, out, &traced)
	tr.end(it)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	checkFig6Rows(out, in, rows, rep.Rows, "traced replay")
	wallTraced := tr.spans[it].seconds()

	setLayerMetrics(out, setupProf, tr.profileSince(from), 1, wallTraced, wallTraced, wallUntraced)
	out.set("experiments.busy_s", tr.spans[id].seconds(), "s")
	out.set("experiments.cores_busy", (h1.cpu-h0.cpu)/h1.wall.Sub(h0.wall).Seconds(), "s/s")
	out.set("experiments.runs", float64(len(rep.Rows)), "count")
	out.set("cluster.objects", float64(traced.objects)/float64(traced.clusterCalls), "count")
	out.set("cluster.alloc_mb", float64(untraced.clusterAlloc)/float64(untraced.clusterCalls)/1e6, "MB")
	out.set("placement.tapes_used", float64(traced.tapesUsed)/float64(traced.placements), "count")
	out.set("tapesys.alloc_b_per_submit", float64(untraced.submitAlloc)/float64(untraced.submits), "B")
	setSimLayer(out, parallelBatchStats(rep.Rows))
	setGC(out, h0, h1, 1) // over the ByID sweep, whose heap is the exhibit's
	out.set("trace.events", 0, "count")
	out.set("trace.events_per_req", 0, "count")
	out.set("spans.requests", 0, "count")
	return nil
}
