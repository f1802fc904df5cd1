package spans

import (
	"bytes"
	"io"
	"testing"

	"paralleltape/internal/trace"
)

// fuzzTraces seed FuzzParseJSONL with short hand-written traces: a healthy
// request, a drive failure with a retry on another drive, a media error
// that times the request out, and traffic between request windows. They
// are kept to a few lines because the fuzzer minimizes every new input,
// and that cost grows quickly with input length.
var fuzzTraces = []string{
	`{"t":0,"kind":"submit","req":0}
{"t":0,"kind":"serve-start","lib":0,"drive":0,"tape":0,"req":0,"span":4294967297,"bytes":100}
{"t":0,"kind":"seek","lib":0,"drive":0,"tape":0,"req":0,"span":4294967297,"dur":2}
{"t":2,"kind":"transfer","lib":0,"drive":0,"tape":0,"req":0,"span":4294967297,"bytes":100,"dur":10}
{"t":12,"kind":"serve-end","lib":0,"drive":0,"tape":0,"req":0,"span":4294967297,"bytes":100,"dur":12}
{"t":12,"kind":"complete","req":0,"bytes":100,"dur":12}
`,
	`{"t":0,"kind":"submit","req":1}
{"t":0,"kind":"serve-start","lib":0,"drive":0,"tape":0,"req":1,"span":4294967297,"bytes":100}
{"t":4,"kind":"drive-failed","lib":0,"drive":0,"tape":0,"req":1,"span":4294967297,"dur":60}
{"t":4,"kind":"op-retried","lib":0,"tape":0,"req":1,"span":4294967297,"bytes":100,"dur":2,"queue":1}
{"t":6,"kind":"serve-start","lib":0,"drive":1,"tape":0,"req":1,"span":8589934593,"bytes":100}
{"t":16,"kind":"complete","req":1,"bytes":100,"dur":16}
`,
	`{"t":0,"kind":"submit","req":2}
{"t":1,"kind":"robot","lib":0,"drive":1,"tape":3,"req":2,"span":4294967298,"dur":2}
{"t":3,"kind":"media-error","lib":0,"drive":1,"tape":3,"req":2,"span":4294967298}
{"t":9,"kind":"request-timeout","req":2,"dur":9}
{"t":9,"kind":"latch-open","name":"request"}
{"t":9,"kind":"complete","req":2,"dur":9}
`,
	`{"t":0,"kind":"drive-failed","lib":0,"drive":2,"dur":30}
{"t":1,"kind":"submit","req":3}
{"t":1,"kind":"resource-grant","name":"robot-0"}
{"t":3,"kind":"resource-release","dur":2,"name":"robot-0"}
{"t":5,"kind":"complete","req":3,"dur":4}
{"t":30,"kind":"drive-repaired","lib":0,"drive":2}
`,
}

// FuzzParseJSONL feeds arbitrary bytes through the offline trace analysis
// path that cmd/tapetrace runs: parse, rebuild the request spans,
// aggregate, and render every report. Any stage may reject its input with
// an error; none may panic.
func FuzzParseJSONL(f *testing.F) {
	for _, tr := range fuzzTraces {
		f.Add([]byte(tr))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := trace.ParseJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := Build(events)
		if err != nil {
			return
		}
		b := Aggregate(s)
		// Rendering to io.Discard cannot fail on the writer; an error here
		// is a formatting error, which is allowed.
		_ = WriteBreakdown(io.Discard, b)
		_ = WriteBreakdownCSV(io.Discard, b)
		_ = WriteSlowest(io.Discard, s, 3)
		_ = WriteTimelineCSV(io.Discard, s)
		for _, r := range s.Requests {
			_ = WriteExplain(io.Discard, r)
		}
	})
}

// TestFuzzSeedsBuild keeps the seed corpus meaningful: every seed must
// parse and rebuild, so the fuzzer starts from inputs that reach the
// aggregation and rendering stages rather than failing in the parser.
func TestFuzzSeedsBuild(t *testing.T) {
	for i, tr := range fuzzTraces {
		events, err := trace.ParseJSONL(bytes.NewReader([]byte(tr)))
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		s, err := Build(events)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if len(s.Requests) != 1 {
			t.Errorf("seed %d: %d requests, want 1", i, len(s.Requests))
		}
	}
}
