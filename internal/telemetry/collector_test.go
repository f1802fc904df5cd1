package telemetry

import (
	"bufio"
	"strings"
	"testing"
	"time"

	"paralleltape/internal/trace"
)

// feedScenario plays a small synthetic request through the collector:
// submit → seek/transfer plans → robot contention → mount → serve-end →
// complete.
func feedScenario(c *Collector) {
	events := []trace.Event{
		{T: 0, Kind: trace.KindSubmit, Lib: -1, Drive: -1, Tape: -1, Req: 1},
		{T: 0, Kind: trace.KindSeek, Lib: 0, Drive: 0, Tape: 3, Req: 1, Dur: 2.5},
		{T: 0, Kind: trace.KindTransfer, Lib: 0, Drive: 0, Tape: 3, Req: 1, Bytes: 1000, Dur: 7.5},
		{T: 1, Kind: trace.KindResourceWait, Lib: -1, Drive: -1, Tape: -1, Req: -1, Queue: 2, Name: "robot-0"},
		{T: 2, Kind: trace.KindResourceGrant, Lib: -1, Drive: -1, Tape: -1, Req: -1, Dur: 1.0, Queue: 1, Name: "robot-0"},
		{T: 3, Kind: trace.KindResourceRelease, Lib: -1, Drive: -1, Tape: -1, Req: -1, Dur: 1.0, Queue: 0, Name: "robot-0"},
		{T: 4, Kind: trace.KindMounted, Lib: 0, Drive: 1, Tape: 5, Req: 1, Dur: 4.0},
		{T: 10, Kind: trace.KindServeEnd, Lib: 0, Drive: 0, Tape: 3, Req: 1, Bytes: 1000, Dur: 10},
		{T: 10, Kind: trace.KindComplete, Lib: -1, Drive: -1, Tape: -1, Req: 1, Bytes: 1000, Dur: 10},
	}
	for _, ev := range events {
		c.Record(ev)
	}
}

func TestCollectorSeries(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)
	feedScenario(c)

	if c.Events.Value() != 9 {
		t.Errorf("events = %d, want 9", c.Events.Value())
	}
	if c.Submitted.Value() != 1 || c.Completed.Value() != 1 {
		t.Errorf("submitted/completed = %d/%d, want 1/1", c.Submitted.Value(), c.Completed.Value())
	}
	if c.BytesMoved.Value() != 1000 {
		t.Errorf("bytes moved = %d, want 1000", c.BytesMoved.Value())
	}
	if c.Switches.Value() != 1 {
		t.Errorf("switches = %d, want 1", c.Switches.Value())
	}
	if c.SeekSeconds.Value() != 2.5 || c.TransferSeconds.Value() != 7.5 || c.SwitchSeconds.Value() != 4.0 {
		t.Errorf("seek/transfer/switch = %v/%v/%v, want 2.5/7.5/4",
			c.SeekSeconds.Value(), c.TransferSeconds.Value(), c.SwitchSeconds.Value())
	}
	if c.RobotWaitSeconds.Value() != 1.0 {
		t.Errorf("robot wait = %v, want 1", c.RobotWaitSeconds.Value())
	}
	if c.RobotQueueDepth.Value() != 0 {
		t.Errorf("robot queue depth = %d, want 0 (after release)", c.RobotQueueDepth.Value())
	}
	if c.SimTime.Value() != 10 {
		t.Errorf("sim time = %v, want 10", c.SimTime.Value())
	}
	if c.ResponseSeconds.Count() != 1 || c.SwitchLatencySeconds.Count() != 1 || c.RequestBytes.Count() != 1 {
		t.Errorf("histogram counts = %d/%d/%d, want 1/1/1",
			c.ResponseSeconds.Count(), c.SwitchLatencySeconds.Count(), c.RequestBytes.Count())
	}
	// Histogram quantile of a single sample is within 1% of it.
	if got := c.ResponseSeconds.Quantile(0.5); got < 9.9 || got > 10.1 {
		t.Errorf("response p50 = %v, want ~10", got)
	}
}

func TestProgressLine(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)
	c.RequestsTarget.Set(4)
	var sb strings.Builder
	p := StartProgress(ProgressOptions{Out: &sb, Interval: time.Hour, Collector: c, Label: "progress"})
	feedScenario(c)

	line := p.line(p.lastWall.Add(2 * time.Second))
	for _, frag := range []string{"progress:", "1/4 requests (25.0%)", "events/s", "sim 10.0s", "eta"} {
		if !strings.Contains(line, frag) {
			t.Errorf("line missing %q: %s", frag, line)
		}
	}
	// Second window with no new events: rates drop to zero, ETA falls
	// back to the lifetime average and the line still renders.
	line = p.line(p.lastWall.Add(2 * time.Second))
	if !strings.Contains(line, "0 events/s") {
		t.Errorf("stalled window line: %s", line)
	}
	p.Stop()
	p.Stop() // idempotent
	if !strings.Contains(sb.String(), "progress:") {
		t.Errorf("Stop did not print a final line: %q", sb.String())
	}
}

func TestProgressSweepLine(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)
	c.RunsTarget.Set(6)
	c.RunsCompleted.Add(2)
	c.ClusteringsTarget.Set(3)
	c.ClusteringsCompleted.Add(1)
	p := StartProgress(ProgressOptions{Out: &strings.Builder{}, Interval: time.Hour, Collector: c})
	defer p.Stop()
	line := p.line(p.lastWall.Add(time.Second))
	if !strings.Contains(line, "clusterings 1/3 runs 2/6") {
		t.Errorf("sweep line missing clusterings or runs: %s", line)
	}
}

// TestCollectorSpanSeries exercises the span-boundary series: the
// in-flight operation gauge and the lazily registered per-drive
// busy-fraction gauges.
func TestCollectorSpanSeries(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)
	span := func(ev trace.Event) int64 {
		c.Record(ev)
		return c.QueueDepth.Value()
	}
	// Two overlapping operations: a switch on L0.D1 (rewind → mounted)
	// and a serve on L0.D0 (serve-start → serve-end).
	if d := span(trace.Event{T: 0, Kind: trace.KindRewind, Lib: 0, Drive: 1, Tape: -1, Req: 3, Span: 201}); d != 1 {
		t.Errorf("depth after rewind = %d, want 1", d)
	}
	if d := span(trace.Event{T: 2, Kind: trace.KindServeStart, Lib: 0, Drive: 0, Tape: 4, Req: 3, Span: 100}); d != 2 {
		t.Errorf("depth after serve-start = %d, want 2", d)
	}
	// Interior span events must not change the depth.
	if d := span(trace.Event{T: 2, Kind: trace.KindSeek, Lib: 0, Drive: 0, Tape: 4, Req: 3, Span: 100, Dur: 1}); d != 2 {
		t.Errorf("depth after seek = %d, want 2", d)
	}
	if d := span(trace.Event{T: 4, Kind: trace.KindMounted, Lib: 0, Drive: 1, Tape: 7, Req: 3, Span: 201, Dur: 4}); d != 1 {
		t.Errorf("depth after mounted = %d, want 1", d)
	}
	if d := span(trace.Event{T: 10, Kind: trace.KindServeEnd, Lib: 0, Drive: 0, Tape: 4, Req: 3, Span: 100, Bytes: 5}); d != 0 {
		t.Errorf("depth after serve-end = %d, want 0", d)
	}
	// Busy fractions: L0.D1 was busy [0,4] of 4s (1.0); L0.D0 was busy
	// [2,10] of 10s (0.8).
	if got := c.driveGauges[driveKey{lib: 0, drive: 1}].Value(); got != 1.0 {
		t.Errorf("L0.D1 busy fraction = %v, want 1.0", got)
	}
	if got := c.driveGauges[driveKey{lib: 0, drive: 0}].Value(); got != 0.8 {
		t.Errorf("L0.D0 busy fraction = %v, want 0.8", got)
	}
	// A close for an unknown span (ring-buffer truncation) is ignored.
	c.Record(trace.Event{T: 11, Kind: trace.KindServeEnd, Lib: 0, Drive: 0, Tape: 4, Req: 4, Span: 999})
	if d := c.QueueDepth.Value(); d != 0 {
		t.Errorf("depth after orphan close = %d, want 0", d)
	}
	// The lazily registered gauges are exposed on the registry.
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	if err := reg.WritePrometheus(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	for _, frag := range []string{"tapesim_queue_depth 0", "tapesim_drive_busy_fraction_L0_D0 0.8", "tapesim_drive_busy_fraction_L0_D1 1"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("exposition missing %q:\n%s", frag, sb.String())
		}
	}
}
