package telemetry

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Progress periodically prints a one-line status of a running simulation
// or sweep, derived from a Collector's counters: completed/total
// clusterings and runs (sweeps only), completed/total requests,
// wall-clock event rate, simulated-time rate, and an ETA. It
// backs the -progress flag of cmd/tapesim and cmd/tapebench.
//
// The reporter only reads atomic counters; it never perturbs the
// simulation, so enabling it cannot change results (asserted by the
// telemetry determinism test in cmd/tapesim).
type Progress struct {
	out      io.Writer
	interval time.Duration
	col      *Collector
	label    string

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// rate window state (only touched by the reporter goroutine and the
	// final Stop line, which runs after the goroutine exits)
	start         time.Time
	lastWall      time.Time
	lastEvents    uint64
	lastCompleted uint64
	lastSim       float64
}

// ProgressOptions configures a Progress reporter; zero fields take
// defaults.
type ProgressOptions struct {
	// Out receives one line per tick (default os.Stderr).
	Out io.Writer
	// Interval is the tick period (default 10s).
	Interval time.Duration
	// Collector supplies the counters (required).
	Collector *Collector
	// Label prefixes every line (default "progress").
	Label string
}

// StartProgress launches the reporter goroutine and returns its handle;
// call Stop to halt it and print a final line.
func StartProgress(opt ProgressOptions) *Progress {
	if opt.Collector == nil {
		panic("telemetry: StartProgress without a Collector")
	}
	if opt.Out == nil {
		opt.Out = os.Stderr
	}
	if opt.Interval <= 0 {
		opt.Interval = 10 * time.Second
	}
	if opt.Label == "" {
		opt.Label = "progress"
	}
	now := time.Now()
	p := &Progress{
		out: opt.Out, interval: opt.Interval, col: opt.Collector, label: opt.Label,
		stop: make(chan struct{}), done: make(chan struct{}),
		start: now, lastWall: now,
	}
	go p.loop()
	return p
}

func (p *Progress) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case now := <-t.C:
			fmt.Fprintln(p.out, p.line(now))
		}
	}
}

// Stop halts the reporter and prints one final line (so short runs still
// produce a summary). Safe to call more than once.
func (p *Progress) Stop() {
	p.stopOnce.Do(func() {
		close(p.stop)
		<-p.done
		fmt.Fprintln(p.out, p.line(time.Now()))
	})
}

// line renders one progress line and advances the rate window.
func (p *Progress) line(now time.Time) string {
	events := p.col.Events.Value()
	completed := p.col.Completed.Value()
	target := p.col.RequestsTarget.Value()
	sim := p.col.SimTime.Value()

	dt := now.Sub(p.lastWall).Seconds()
	if dt <= 0 {
		dt = 1e-9
	}
	evRate := float64(events-p.lastEvents) / dt
	reqRate := float64(completed-p.lastCompleted) / dt
	simRate := (sim - p.lastSim) / dt
	p.lastWall, p.lastEvents, p.lastCompleted, p.lastSim = now, events, completed, sim

	s := fmt.Sprintf("%s:", p.label)
	if clTarget := p.col.ClusteringsTarget.Value(); clTarget > 0 {
		s += fmt.Sprintf(" clusterings %d/%d", p.col.ClusteringsCompleted.Value(), clTarget)
	}
	if runsTarget := p.col.RunsTarget.Value(); runsTarget > 0 {
		s += fmt.Sprintf(" runs %d/%d", p.col.RunsCompleted.Value(), runsTarget)
	}
	if target > 0 {
		pct := 100 * float64(completed) / float64(target)
		s += fmt.Sprintf(" %d/%d requests (%.1f%%)", completed, target, pct)
	} else {
		s += fmt.Sprintf(" %d requests", completed)
	}
	s += fmt.Sprintf("  %.0f events/s  sim %.1fs (x%.0f)", evRate, sim, simRate)
	if target > 0 && completed > 0 && uint64(target) > completed {
		// Prefer the current window's request rate; fall back to the
		// lifetime average when the window saw no completions.
		rate := reqRate
		if rate <= 0 {
			if lifetime := now.Sub(p.start).Seconds(); lifetime > 0 {
				rate = float64(completed) / lifetime
			}
		}
		if rate > 0 {
			eta := time.Duration(float64(uint64(target)-completed) / rate * float64(time.Second))
			s += fmt.Sprintf("  eta %s", eta.Round(time.Second))
		}
	}
	return s
}
