package cluster

import (
	"math"
	"math/rand"
	"testing"

	"paralleltape/internal/model"
	"paralleltape/internal/rng"
	"paralleltape/internal/workload"
)

// wl builds a workload from explicit request memberships; all objects have
// size 10 unless resized by tests. Probabilities are normalized.
func wl(numObjects int, reqs ...[]model.ObjectID) *model.Workload {
	return wlWeighted(numObjects, nil, reqs...)
}

func wlWeighted(numObjects int, weights []float64, reqs ...[]model.ObjectID) *model.Workload {
	w := &model.Workload{}
	for i := 0; i < numObjects; i++ {
		w.Objects = append(w.Objects, model.Object{ID: model.ObjectID(i), Size: 10})
	}
	total := 0.0
	for i := range reqs {
		p := 1.0
		if weights != nil {
			p = weights[i]
		}
		total += p
		w.Requests = append(w.Requests, model.Request{ID: model.RequestID(i), Prob: p, Objects: reqs[i]})
	}
	for i := range w.Requests {
		w.Requests[i].Prob /= total
	}
	return w
}

func objectsOf(c Cluster) map[model.ObjectID]bool {
	m := map[model.ObjectID]bool{}
	for _, id := range c.Objects {
		m[id] = true
	}
	return m
}

func TestSingleRequestFormsOneCluster(t *testing.T) {
	w := wl(5, []model.ObjectID{0, 1, 2}, []model.ObjectID{3, 4})
	res, err := Run(w, Config{Threshold: 0.01, Linkage: Average})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(w); err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %+v", res.Clusters)
	}
	a := objectsOf(res.Clusters[0])
	b := objectsOf(res.Clusters[1])
	if len(a)+len(b) != 5 {
		t.Errorf("cluster sizes %d + %d", len(a), len(b))
	}
	// {0,1,2} must be together; {3,4} must be together.
	if !(a[0] && a[1] && a[2]) && !(b[0] && b[1] && b[2]) {
		t.Errorf("request 0's objects split: %v %v", a, b)
	}
}

func TestThresholdCutsWeakRelations(t *testing.T) {
	// Request 0 (hot) covers {0,1}; request 1 (cold) covers {1,2}.
	// With a threshold between the two probabilities, only the hot pair
	// merges.
	w := wlWeighted(3, []float64{0.9, 0.1},
		[]model.ObjectID{0, 1}, []model.ObjectID{1, 2})
	res, err := Run(w, Config{Threshold: 0.5, Linkage: Average})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("want 2 clusters, got %+v", res.Clusters)
	}
	hot := objectsOf(res.Clusters[0])
	if !(hot[0] && hot[1]) || hot[2] {
		t.Errorf("hot cluster = %v, want {0,1}", hot)
	}
}

func TestLowThresholdMergesChain(t *testing.T) {
	// Two requests sharing object 1 chain everything together when the
	// threshold is below both request probabilities (single linkage).
	w := wl(3, []model.ObjectID{0, 1}, []model.ObjectID{1, 2})
	res, err := Run(w, Config{Threshold: 0.01, Linkage: Single})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || len(res.Clusters[0].Objects) != 3 {
		t.Fatalf("single linkage should chain: %+v", res.Clusters)
	}
}

func TestCompleteLinkageRefusesChain(t *testing.T) {
	// Objects 0 and 2 never co-occur, so complete linkage (min pair sim)
	// cannot merge {0,1} with {2}: the 0–2 pair has similarity 0.
	w := wl(3, []model.ObjectID{0, 1}, []model.ObjectID{1, 2})
	res, err := Run(w, Config{Threshold: 0.01, Linkage: Complete})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("complete linkage chained anyway: %+v", res.Clusters)
	}
}

func TestUnreferencedSeparated(t *testing.T) {
	w := wl(6, []model.ObjectID{0, 1})
	res, err := Run(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unreferenced) != 4 {
		t.Errorf("Unreferenced = %v", res.Unreferenced)
	}
	if err := res.Validate(w); err != nil {
		t.Error(err)
	}
}

func TestClusterProbIsRequestUnionProb(t *testing.T) {
	// Cluster {0,1,2} is touched by requests 0 and 1 (prob 0.6+0.3);
	// request 2 (prob 0.1) touches only object 3.
	w := wlWeighted(4, []float64{0.6, 0.3, 0.1},
		[]model.ObjectID{0, 1}, []model.ObjectID{1, 2}, []model.ObjectID{3})
	res, err := Run(w, Config{Threshold: 0.01, Linkage: Single})
	if err != nil {
		t.Fatal(err)
	}
	var big *Cluster
	for i := range res.Clusters {
		if len(res.Clusters[i].Objects) == 3 {
			big = &res.Clusters[i]
		}
	}
	if big == nil {
		t.Fatalf("no merged cluster: %+v", res.Clusters)
	}
	if math.Abs(big.Prob-0.9) > 1e-9 {
		t.Errorf("cluster prob = %v, want 0.9", big.Prob)
	}
}

func TestMaxObjectsCap(t *testing.T) {
	w := wl(4, []model.ObjectID{0, 1, 2, 3})
	res, err := Run(w, Config{Threshold: 0.01, Linkage: Average, MaxObjects: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if len(c.Objects) > 2 {
			t.Errorf("cluster exceeds MaxObjects: %+v", c)
		}
	}
}

func TestMaxBytesCap(t *testing.T) {
	w := wl(4, []model.ObjectID{0, 1, 2, 3}) // each object 10 bytes
	res, err := Run(w, Config{Threshold: 0.01, Linkage: Average, MaxBytes: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if c.Bytes > 25 {
			t.Errorf("cluster exceeds MaxBytes: %+v", c)
		}
	}
	if err := res.Validate(w); err != nil {
		t.Error(err)
	}
}

func TestAtomCollapse(t *testing.T) {
	// Objects 0..3 all belong to exactly requests {0,1}: one atom. The
	// result must still report them as one cluster at low threshold.
	w := wl(4, []model.ObjectID{0, 1, 2, 3}, []model.ObjectID{0, 1, 2, 3})
	atoms, unref := buildAtoms(w)
	if len(atoms) != 1 {
		t.Fatalf("atoms = %d, want 1", len(atoms))
	}
	if len(unref) != 0 {
		t.Errorf("unref = %v", unref)
	}
	if len(atoms[0].objects) != 4 || atoms[0].bytes != 40 {
		t.Errorf("atom = %+v", atoms[0])
	}
}

func TestAtomsSplitBySignature(t *testing.T) {
	// 0,1 in request 0 only; 2 in both; 3 in request 1 only → 3 atoms.
	w := wl(4, []model.ObjectID{0, 1, 2}, []model.ObjectID{2, 3})
	atoms, _ := buildAtoms(w)
	if len(atoms) != 3 {
		t.Fatalf("atoms = %+v", atoms)
	}
}

func TestBuildEdgesSimilarity(t *testing.T) {
	// Atoms: A={0,1} (req 0), B={2} (reqs 0,1), C={3} (req 1).
	// s(A,B)=P0, s(B,C)=P1, s(A,C)=0 (no shared request).
	w := wlWeighted(4, []float64{0.7, 0.3},
		[]model.ObjectID{0, 1, 2}, []model.ObjectID{2, 3})
	atoms, _ := buildAtoms(w)
	edges := buildEdges(w, atoms)
	if len(edges) != 2 {
		t.Fatalf("edges = %+v", edges)
	}
	sims := map[float64]bool{}
	for _, e := range edges {
		sims[math.Round(e.sim*1e9)/1e9] = true
	}
	if !sims[0.7] || !sims[0.3] {
		t.Errorf("edge sims = %+v", edges)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	w := wl(2, []model.ObjectID{0, 1})
	if _, err := Run(w, Config{Threshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := Run(w, Config{Threshold: 0.1, Linkage: Linkage(9)}); err == nil {
		t.Error("bad linkage accepted")
	}
}

func TestLinkageString(t *testing.T) {
	if Average.String() != "average" || Single.String() != "single" || Complete.String() != "complete" {
		t.Error("linkage names wrong")
	}
	if Linkage(9).String() == "" {
		t.Error("unknown linkage has empty name")
	}
}

func TestSummarize(t *testing.T) {
	w := wl(5, []model.ObjectID{0, 1, 2}, []model.ObjectID{3})
	res, err := Run(w, Config{Threshold: 0.01, Linkage: Average})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summarize()
	if s.NumClusters != 2 {
		t.Errorf("NumClusters = %d", s.NumClusters)
	}
	if s.NumSingletons != 1 {
		t.Errorf("NumSingletons = %d", s.NumSingletons)
	}
	if s.MaxObjects != 3 {
		t.Errorf("MaxObjects = %d", s.MaxObjects)
	}
	if s.Unreferenced != 1 {
		t.Errorf("Unreferenced = %d", s.Unreferenced)
	}
	if s.TotalBytes != 40 {
		t.Errorf("TotalBytes = %d", s.TotalBytes)
	}
}

func TestValidateCatchesCorruptResult(t *testing.T) {
	w := wl(3, []model.ObjectID{0, 1, 2})
	res, _ := Run(w, DefaultConfig())
	res.Clusters[0].Objects[0] = res.Clusters[0].Objects[1] // duplicate
	if err := res.Validate(w); err == nil {
		t.Error("duplicate object accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := workload.Defaults()
	p.NumObjects = 3000
	p.NumRequests = 60
	p.MinReqLen = 20
	p.MaxReqLen = 30
	w, err := workload.Generate(p, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(w, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a.Clusters), len(b.Clusters))
	}
	for i := range a.Clusters {
		ca, cb := a.Clusters[i], b.Clusters[i]
		if len(ca.Objects) != len(cb.Objects) || ca.Bytes != cb.Bytes || ca.Prob != cb.Prob {
			t.Fatalf("cluster %d differs: %+v vs %+v", i, ca, cb)
		}
		for j := range ca.Objects {
			if ca.Objects[j] != cb.Objects[j] {
				t.Fatalf("cluster %d member %d differs", i, j)
			}
		}
	}
}

func TestGeneratedWorkloadClusterQuality(t *testing.T) {
	// On a paper-shaped workload, hot requests should cohere: the hottest
	// request's exclusive objects must land in a single cluster.
	p := workload.Defaults()
	p.NumObjects = 5000
	p.NumRequests = 50
	p.MinReqLen = 30
	p.MaxReqLen = 40
	p.Alpha = 0.5
	w, err := workload.Generate(p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(w); err != nil {
		t.Fatal(err)
	}
	// Locate clusters containing each of request 0's objects; objects of
	// the same request should concentrate in very few clusters.
	clusterOf := map[model.ObjectID]int{}
	for i, c := range res.Clusters {
		for _, id := range c.Objects {
			clusterOf[id] = i
		}
	}
	distinct := map[int]bool{}
	for _, id := range w.Requests[0].Objects {
		distinct[clusterOf[id]] = true
	}
	if len(distinct) > 3 {
		t.Errorf("hottest request scattered across %d clusters", len(distinct))
	}
}

// BenchmarkClusterPaperScale times Run on the paper-scale workload under
// each linkage, plus one capped config whose refusals take their own path.
func BenchmarkClusterPaperScale(b *testing.B) {
	w, err := workload.Generate(workload.Defaults(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"average", Config{Linkage: Average}},
		{"single", Config{Linkage: Single}},
		{"complete", Config{Linkage: Complete}},
		{"average-max64", Config{Linkage: Average, MaxObjects: 64}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(w, bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestClusterHeapOrder drives the cluster heap through random raises, sets
// and removals against a brute-force map of keys, checking after every
// step that the root is the best key under candLess, that pos and the
// slots agree, and that exactly the absent clusters have pos -1. Keys are
// drawn from small ranges so ties on sim are common.
func TestClusterHeapOrder(t *testing.T) {
	const n = 40
	r := rand.New(rand.NewSource(1))
	draw := func(x int32) candidate {
		return candidate{sim: float64(r.Intn(8)), ab: uint64(x)<<32 | uint64(r.Intn(n)), e: int32(r.Intn(4))}
	}
	var h clusterHeap
	h.reset(n)
	ref := map[int32]candidate{}
	for step := 0; step < 20000; step++ {
		x := int32(r.Intn(n))
		switch op := r.Intn(10); {
		case op < 4:
			c := draw(x)
			h.raise(c)
			if old, ok := ref[x]; !ok || candLess(c, old) {
				ref[x] = c
			}
		case op < 7:
			c := draw(x)
			h.set(c)
			ref[x] = c
		default:
			h.remove(x)
			delete(ref, x)
		}
		if len(h.keys) != len(ref) {
			t.Fatalf("step %d: heap holds %d keys, want %d", step, len(h.keys), len(ref))
		}
		for i, c := range h.keys {
			if owner := int32(c.ab >> 32); h.pos[owner] != int32(i) {
				t.Fatalf("step %d: slot %d holds cluster %d, whose pos is %d", step, i, owner, h.pos[owner])
			}
		}
		for y := int32(0); y < n; y++ {
			c, in := ref[y]
			switch {
			case !in && h.pos[y] != -1:
				t.Fatalf("step %d: absent cluster %d has pos %d", step, y, h.pos[y])
			case in && (h.pos[y] < 0 || h.keys[h.pos[y]] != c):
				t.Fatalf("step %d: cluster %d has pos %d, want its key %+v", step, y, h.pos[y], c)
			}
		}
		if len(ref) == 0 {
			continue
		}
		var best candidate
		found := false
		for _, c := range ref {
			if !found || candLess(c, best) {
				best, found = c, true
			}
		}
		if h.keys[0] != best {
			t.Fatalf("step %d: root %+v, best key %+v", step, h.keys[0], best)
		}
	}
}
