// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one of three named workloads against the simulator's public
// layer functions, checks every output it produces, and prints one JSON
// result object as the last line of standard output.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// span recording off. With --trace 1 the run records a span around every
// call into a layer and reports per-layer self time, counts and the
// tracing overhead instead; the spans are written under .bench_build/spans
// when the run ends. See README.md in this directory for the workloads, the metric
// definitions and the metric-to-workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spansDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
var spansDir = filepath.Join(".bench_build", "spans")

// runParams is what every workload receives from the command line.
type runParams struct {
	seed    uint64
	seconds float64
	traced  bool
}

// workloadFunc runs one workload and fills the outcome.
type workloadFunc func(p runParams, out *outcome) error

var workloads = map[string]workloadFunc{
	"fig6-sweep":     runFig6Sweep,
	"request-stream": runRequestStream,
	"chaos-trace":    runChaosTrace,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: fig6-sweep, request-stream or chaos-trace")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the measured phase in host seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want fig6-sweep, request-stream or chaos-trace)\n", *name)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	p := runParams{seed: *seed, seconds: *seconds, traced: *traced == 1}
	out := newOutcome(p.traced)
	if err := fn(p, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if p.traced {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.csv.gz", *name, *seed))
		if err := out.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(out.tr.spans), path)
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	for _, msg := range out.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// outcome collects a run's counts, check failures and metrics.
type outcome struct {
	tr        *tracer
	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]metric
}

func newOutcome(traced bool) *outcome {
	return &outcome{tr: newTracer(traced), metrics: make(map[string]metric)}
}

// maxFailureMessages bounds how many check failures are kept for stderr;
// every failure is still counted.
const maxFailureMessages = 20

// check records one checked operation, failed when msg is non-empty.
func (o *outcome) check(msg string) {
	o.attempted++
	if msg == "" {
		return
	}
	o.failed++
	if len(o.failures) < maxFailureMessages {
		o.failures = append(o.failures, msg)
	}
}

func (o *outcome) set(name string, value float64, unit string) {
	o.metrics[name] = metric{Value: value, Unit: unit}
}
