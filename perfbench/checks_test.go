package main

import (
	"errors"
	"math"
	"testing"

	"paralleltape/internal/experiments"
	"paralleltape/internal/spans"
)

// The self-tests below feed the output checks real results, then the same
// results perturbed, and require the perturbed ones to be counted as
// failed operations.

// quickFig6 returns a small fig6 configuration and its inputs.
func quickFig6(t *testing.T) *fig6Inputs {
	t.Helper()
	cfg := experiments.Quick()
	cfg.Seed = 7
	cfg.Requests = 20
	cfg.Seeds = 2
	in, err := fig6SetUp(newTracer(false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

func TestFig6ChecksFailPerturbedRows(t *testing.T) {
	in := quickFig6(t)
	rep, err := experiments.ByID("fig6", in.cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome(false)
	checkFig6Rows(out, in, rep.Rows, nil, "sweep")
	if out.failed != 0 || out.attempted != 18 {
		t.Fatalf("clean sweep: %d of %d failed: %v", out.failed, out.attempted, out.failures)
	}

	// The replay restates the runner from public functions; it must agree
	// with ByID bit for bit.
	replayed, err := replayFig6(newTracer(true), in, out, &replayStats{})
	if err != nil {
		t.Fatal(err)
	}
	checkFig6Rows(out, in, replayed, rep.Rows, "replay")
	if out.failed != 0 {
		t.Fatalf("replay: %d failed: %v", out.failed, out.failures)
	}

	perturb := []struct {
		name string
		edit func(r *experiments.Row)
		ref  bool
	}{
		{"bandwidth one ulp up", func(r *experiments.Row) { r.Stats.MeanBandwidth = nextUp(r.Stats.MeanBandwidth) }, true},
		{"seek summary one ulp up", func(r *experiments.Row) { r.Stats.Seek.P99 = nextUp(r.Stats.Seek.P99) }, true},
		{"tapes used", func(r *experiments.Row) { r.TapesUsed++ }, true},
		{"bytes", func(r *experiments.Row) { r.Stats.Bytes-- }, false},
		{"bytes served", func(r *experiments.Row) { r.Stats.BytesServed-- }, false},
		{"row error", func(r *experiments.Row) { r.Err = errTest }, false},
		{"scheme", func(r *experiments.Row) { r.Scheme = "round-robin" }, false},
	}
	for _, p := range perturb {
		rows := append([]experiments.Row(nil), replayed...)
		p.edit(&rows[4])
		var ref []experiments.Row
		if p.ref {
			ref = rep.Rows
		}
		out := newOutcome(false)
		checkFig6Rows(out, in, rows, ref, "perturbed")
		if out.failed != 1 || out.attempted != 18 {
			t.Errorf("%s: %d of %d rows failed, want 1 of 18", p.name, out.failed, out.attempted)
		}
	}

	out = newOutcome(false)
	checkFig6Rows(out, in, rep.Rows[:17], nil, "short")
	if out.failed != 1 {
		t.Errorf("missing row: %d failed, want 1", out.failed)
	}
}

var errTest = errors.New("injected")

func TestStreamPassFailsPerturbedReference(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		in, err := streamSetUp(newTracer(false), 3, chaos)
		if err != nil {
			t.Fatal(err)
		}
		out := newOutcome(false)
		var st passStats
		var req int64
		in.pass(out.tr, out, &st, &req)
		in.pass(out.tr, out, &st, &req)
		n := int64(len(in.systems) * len(in.reqs))
		if out.failed != 0 || out.attempted != 2*n {
			t.Fatalf("chaos=%v clean passes: %d of %d failed: %v", chaos, out.failed, out.attempted, out.failures)
		}
		if chaos && in.systems[parallelBatchIndex].ref.MeanRetries == 0 {
			t.Errorf("chaos pass retried nothing")
		}
		// A reference one ulp off fails every request of that scheme's
		// next pass.
		ref := in.systems[1].ref
		ref.MeanResponse = nextUp(ref.MeanResponse)
		in.pass(out.tr, out, &st, &req)
		if want := int64(len(in.reqs)); out.failed != want {
			t.Errorf("chaos=%v perturbed reference: %d failed, want %d", chaos, out.failed, want)
		}
		in.close()
	}
}

func TestSpanWallsFailPerturbedResponse(t *testing.T) {
	in, err := streamSetUp(newTracer(false), 5, true)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	s := in.systems[parallelBatchIndex]
	for i, r := range in.reqs[:50] {
		if s.ms[i], err = s.sys.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	ms := s.ms[:50]
	sess, err := spans.Build(s.buf.Events)
	if err != nil {
		t.Fatal(err)
	}
	for i, msg := range checkSpanWalls(sess, ms) {
		if msg != "" {
			t.Fatalf("request %d: %s", i, msg)
		}
	}
	ms[17].Response = nextUp(ms[17].Response)
	for i, msg := range checkSpanWalls(sess, ms) {
		if (msg != "") != (i == 17) {
			t.Errorf("request %d after perturbing request 17: %q", i, msg)
		}
	}
	if msgs := checkSpanWalls(sess, ms[:49]); msgs[0] == "" {
		t.Errorf("a session longer than the submitted stream passed")
	}
}

func TestSameBits(t *testing.T) {
	type inner struct{ X float64 }
	type rec struct {
		A int
		B inner
		C string
		D bool
	}
	a := rec{1, inner{0}, "x", true}
	if d := sameBits(a, a); d != "" {
		t.Fatalf("identical values differ: %s", d)
	}
	b := a
	b.B.X = math.Copysign(0, -1)
	if d := sameBits(a, b); d != ".B.X: 0 != -0" {
		t.Errorf("-0 against +0: %q", d)
	}
}

func TestRSSSamplerSeesAllocation(t *testing.T) {
	before := residentBytes()
	if before <= 0 {
		t.Skip("resident set size unavailable")
	}
	s := startRSS()
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	peak := s.stopMB()
	if peak < float64(before)/(1<<20)+32 {
		t.Errorf("peak %.1f MB after touching 64 MB on top of %.1f MB", peak, float64(before)/(1<<20))
	}
}
