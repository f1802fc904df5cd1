package cluster

import (
	"slices"
	"testing"

	"paralleltape/internal/model"
)

// FuzzRunMatchesReference is the differential fuzz target for the
// clustering pipeline: on every decodable input, Run at one or three
// edge-aggregation workers must be bit-identical to referenceRun (the
// frozen map-based oracle) and must partition the referenced objects.
//
// An input encodes one small clustering problem:
//
//	[0]   linkage (mod 3)
//	[1]   flags: 1 = MaxObjects cap, 2 = MaxBytes cap, 4 = three edge
//	      workers (else one), 8 = explicit threshold (else automatic)
//	[2]   MaxObjects = [2]+1; explicit threshold = [2]/1024
//	[3]   MaxBytes = ([3]+1) KiB
//	[4]   object count = [4]+1
//	[5:]  requests, each: a weight byte (Prob = (weight+1)/256), a length
//	      byte L, then L object IDs (mod the object count; repeats within
//	      a request are dropped)
//
// Object i has size 1..64 KiB, a fixed hash of i, so the byte cap binds
// on some merges and not others. Decoding stops once the requests hold
// fuzzPairBudget object pairs. Inputs stay around a hundred bytes and an
// execution around a tenth of a millisecond, which keeps short the
// minimization the fuzzer runs on every new input (quadratic in its
// length).
func FuzzRunMatchesReference(f *testing.F) {
	ws := equivalenceWorkloads(f)
	var names []string
	for name := range ws {
		names = append(names, name)
	}
	slices.Sort(names)
	headers := [][4]byte{
		{byte(Average), 0, 0, 0},
		{byte(Single), 1 | 4, 15, 0},
		{byte(Complete), 2 | 4 | 8, 3, 63},
	}
	for _, name := range names {
		for _, h := range headers {
			f.Add(encodeFuzzCase(h, ws[name]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, cfg, workers, ok := decodeFuzzCase(data)
		if !ok {
			return
		}
		want, err := referenceRun(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runWorkers(w, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, got, want)
		if err := got.Validate(w); err != nil {
			t.Fatal(err)
		}
	})
}

const (
	// fuzzPairBudget bounds Σ L(L-1)/2 over a decoded workload's requests.
	fuzzPairBudget = 256
	// fuzzSeedReqLen cuts requests when encoding a seed, so a seed keeps
	// many requests within the pair budget.
	fuzzSeedReqLen = 8
)

// fuzzObjectSize is object id's size in a decoded fuzz workload.
func fuzzObjectSize(id int) int64 {
	return int64(1+(uint32(id)*2654435761)>>26) << 10
}

// decodeFuzzCase turns a fuzz input into a workload, a configuration and
// an edge-worker count; ok is false for inputs too short to carry one.
func decodeFuzzCase(data []byte) (w *model.Workload, cfg Config, workers int, ok bool) {
	if len(data) < 5 {
		return nil, cfg, 0, false
	}
	cfg.Linkage = Linkage(data[0] % 3)
	flags := data[1]
	if flags&1 != 0 {
		cfg.MaxObjects = int(data[2]) + 1
	}
	if flags&2 != 0 {
		cfg.MaxBytes = (int64(data[3]) + 1) << 10
	}
	workers = 1
	if flags&4 != 0 {
		workers = 3
	}
	if flags&8 != 0 {
		cfg.Threshold = float64(data[2]) / 1024
	}
	n := int(data[4]) + 1
	w = &model.Workload{Objects: make([]model.Object, n)}
	for i := range w.Objects {
		w.Objects[i] = model.Object{ID: model.ObjectID(i), Size: fuzzObjectSize(i)}
	}
	seen := make([]int, n) // request index + 1 that last listed the object
	rest := data[5:]
	pairs := 0
	for len(rest) >= 2 && pairs < fuzzPairBudget {
		r := model.Request{ID: model.RequestID(len(w.Requests)), Prob: float64(rest[0]+1) / 256}
		l := min(int(rest[1]), len(rest)-2)
		for _, b := range rest[2 : 2+l] {
			if id := int(b) % n; seen[id] != len(w.Requests)+1 {
				seen[id] = len(w.Requests) + 1
				r.Objects = append(r.Objects, model.ObjectID(id))
			}
		}
		rest = rest[2+l:]
		if len(r.Objects) > 0 {
			w.Requests = append(w.Requests, r)
			pairs += len(r.Objects) * (len(r.Objects) - 1) / 2
		}
	}
	return w, cfg, workers, true
}

// encodeFuzzCase encodes w under header h in decodeFuzzCase's format. It
// keeps w's shape rather than its exact values: probabilities quantize to
// weights relative to the most popular request, object IDs fold into 256,
// and requests are cut at fuzzSeedReqLen objects and at the pair budget.
func encodeFuzzCase(h [4]byte, w *model.Workload) []byte {
	out := append([]byte(nil), h[:]...)
	out = append(out, byte(min(len(w.Objects), 256)-1))
	maxProb := 0.0
	for i := range w.Requests {
		maxProb = max(maxProb, w.Requests[i].Prob)
	}
	pairs := 0
	for i := 0; i < len(w.Requests) && pairs < fuzzPairBudget; i++ {
		r := &w.Requests[i]
		objs := r.Objects[:min(len(r.Objects), fuzzSeedReqLen)]
		pairs += len(objs) * (len(objs) - 1) / 2
		out = append(out, byte(max(r.Prob/maxProb*256-1, 0)), byte(len(objs)))
		for _, id := range objs {
			out = append(out, byte(id))
		}
	}
	return out
}
