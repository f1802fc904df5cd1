package main

import (
	"fmt"
	"runtime"
	"time"

	"paralleltape/internal/metrics"
)

// Metric helpers shared by the workloads. Per-layer figures describe one
// set-up plus one measured iteration (a fig6 replay, or one pass over the
// three schemes' request streams): a layer's set-up spans come from the
// run's last set-up, its iteration spans are averaged over the traced
// iterations.

// layerNames are the layers whose busy time is reported, in output order.
var layerNames = []string{"workload", "cluster", "placement", "tapesys", "metrics", "spans"}

// setLayerMetrics reports busy time, call counts, the Submit latency
// distribution, the layer shares of the traced iteration wall time, and
// the tracing overhead (median traced against median untraced iteration).
func setLayerMetrics(out *outcome, setup, iter profile, iters int, iterWall, tracedWall, untracedWall float64) {
	n := float64(iters)
	for _, l := range layerNames {
		out.set(l+".busy_s", setup.self[l]+iter.self[l]/n, "s")
	}
	calls := func(names ...string) float64 {
		var c float64
		for _, name := range names {
			c += float64(setup.calls[name]) + float64(iter.calls[name])/n
		}
		return c
	}
	out.set("workload.calls", calls(spGenerate, spTargetBytes, spReplaceAlpha, spRequestStream), "count")
	out.set("cluster.calls", calls(spCluster), "count")
	out.set("placement.calls", calls(spPlace), "count")
	out.set("tapesys.submits", float64(iter.calls[spSubmit])/n, "count")
	out.set("tapesys.submit_us_samples", float64(len(iter.submits)), "count")
	out.set("tapesys.submit_us_p50", percentile(iter.submits, 0.50), "us")
	out.set("tapesys.submit_us_p99", percentile(iter.submits, 0.99), "us")
	wall := iterWall / n
	for _, l := range []string{"cluster", "tapesys", "spans"} {
		out.set(l+".share_pct", 100*iter.self[l]/n/wall, "%")
	}
	out.set("bench.iterations", n, "count")
	out.set("bench.trace_overhead_pct", 100*(tracedWall/untracedWall-1), "%")
}

// setSimEndToEnd reports the simulated end-to-end metrics: the
// parallel-batch mean effective bandwidth and availability, averaged over
// the workload's points.
func setSimEndToEnd(out *outcome, pb []metrics.SessionStats) {
	var bw, avail float64
	for _, st := range pb {
		bw += st.MeanBandwidth
		avail += st.Availability
	}
	n := float64(len(pb))
	out.set("sim_bandwidth_mbps", bw/n/1e6, "MB/s")
	out.set("sim_availability_pct", 100*avail/n, "%")
}

// setSimLayer reports the simulated tapesys metrics of the parallel-batch
// runs: per-request means averaged over the workload's points, and the
// retry and media-error counts summed over them.
func setSimLayer(out *outcome, pb []metrics.SessionStats) {
	var sw, mounted, robot, seek, drives, retries, media float64
	for _, st := range pb {
		sw += st.MeanSwitches
		mounted += st.MeanMountedPct
		robot += st.MeanRobotWait
		seek += st.MeanSeek
		drives += st.MeanDrivesUsed
		retries += st.MeanRetries * float64(st.Requests)
		media += float64(st.MediaErrors)
	}
	n := float64(len(pb))
	out.set("tapesys.sim_switches_per_req", sw/n, "count")
	out.set("tapesys.sim_mounted_pct", 100*mounted/n, "%")
	out.set("tapesys.sim_robot_wait_s", robot/n, "s")
	out.set("tapesys.sim_seek_s", seek/n, "s")
	out.set("tapesys.sim_drives_per_req", drives/n, "count")
	out.set("tapesys.retries", retries, "count")
	out.set("tapesys.media_errors", media, "count")
}

// setGC reports the runtime's GC CPU time and cycles between two samples,
// per iteration.
func setGC(out *outcome, a, b hostSample, iters int) {
	n := float64(iters)
	out.set("runtime.gc_cpu_s", (b.gcCPU-a.gcCPU)/n, "s")
	out.set("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles)/n, "count")
}

// setPeakRSS reports the median of the iterations' peak resident set
// sizes.
func setPeakRSS(out *outcome, peaks []float64) error {
	mb := median(peaks)
	if !(mb > 0) {
		return fmt.Errorf("resident set size unavailable")
	}
	out.set("peak_rss_mb", mb, "MB")
	return nil
}

// setupRepeats is how many times each run performs its set-up; setup_s is
// the median.
const setupRepeats = 5

// setUp runs fn setupRepeats times and returns the median wall time and
// the index of the first span the last repetition recorded.
func setUp(tr *tracer, fn func() error) (seconds float64, lastFrom int, err error) {
	walls := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // drop the previous repetition's garbage, so peak RSS repeats
		lastFrom = len(tr.spans)
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), lastFrom, nil
}

// fastWall returns the 10th percentile (nearest rank) of a run's
// iteration wall times: the fastest iteration when there are ten or
// fewer. On a shared host other tenants slow the benchmark in episodes of
// a few seconds, and contention only adds time; the median of a run moves
// with the share of the run those episodes covered, a low percentile much
// less. Every iteration does the same deterministic work.
func fastWall(walls []float64) float64 { return percentile(walls, 0.1) }

// seconds returns a closed span's duration.
func (s span) seconds() float64 { return float64(s.end-s.start) / 1e9 }

// another reports whether the measured phase, begun at start, should run
// another iteration expected to last about last: iterations continue while
// the next is expected to end within the budget, and at least min run.
func another(start time.Time, budget float64, done, min int, last time.Duration) bool {
	if done < min {
		return true
	}
	return time.Since(start).Seconds()+last.Seconds() <= budget
}
