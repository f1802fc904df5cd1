package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"paralleltape/internal/cluster"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/tape"
	"paralleltape/internal/telemetry"
	"paralleltape/internal/workload"
)

// sweepJSON renders the full sweep (every exhibit) to one JSON blob — the
// byte-level identity carrier for the determinism tests.
func sweepJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	reps, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, rep := range reps {
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSweepDeterminismAcrossShardsAndWorkers is the sweep-level half of
// the determinism contract: the full Quick sweep's report JSON must be
// byte-identical for every (Shards, Workers) combination — neither run
// parallelism nor intra-run engine sharding may change a single byte of
// any exhibit. Request count is reduced to keep the 6-sweep matrix inside
// the test budget; every exhibit still runs.
func TestSweepDeterminismAcrossShardsAndWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("6 full sweeps; skipped in -short")
	}
	cfg := Quick()
	cfg.Requests = 8
	cfg.Seeds = 1
	shardCounts := []int{1, 2, 4}
	workerCounts := []int{1, runtime.GOMAXPROCS(0)}
	pipelines := []bool{false, true}
	if raceEnabled {
		// The race detector slows the sweep ~10x; one sharded+parallel
		// pipelined combination against the serial baseline still crosses
		// every goroutine boundary the full matrix does.
		cfg.Requests = 4
		shardCounts = []int{4}
		workerCounts = []int{runtime.GOMAXPROCS(0)}
		pipelines = []bool{true}
	}

	base := cfg
	base.Shards = 1
	base.Workers = 1
	want := sweepJSON(t, base)

	for _, shards := range shardCounts {
		for _, workers := range workerCounts {
			for _, pipeline := range pipelines {
				c := cfg
				c.Shards = shards
				c.Workers = workers
				c.Pipeline = pipeline
				got := sweepJSON(t, c)
				if !bytes.Equal(got, want) {
					t.Errorf("sweep JSON diverges at shards=%d workers=%d pipeline=%v (%d vs %d bytes)",
						shards, workers, pipeline, len(got), len(want))
				}
			}
		}
	}
}

// countingScheme wraps a placement scheme and counts Place invocations; it
// is a comparable value, so the placement cache can key on it.
type countingScheme struct {
	placement.Scheme
	calls *atomic.Int64
}

func (cs countingScheme) Place(w *model.Workload, hw tape.Hardware) (*placement.Result, error) {
	cs.calls.Add(1)
	return cs.Scheme.Place(w, hw)
}

// TestPlacementMemoized checks that runs sharing a (scheme, workload,
// hardware) triple within one RunAll sweep compute the placement once and
// still produce identical rows — the scheduler study's shape, where nine
// policy points share one placement.
func TestPlacementMemoized(t *testing.T) {
	cfg := quickCfg()
	cfg.Requests = 5
	w, err := cfg.baseWorkload(0)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	scheme := countingScheme{Scheme: placement.ParallelBatch{M: cfg.M, K: cfg.K}, calls: &calls}
	var runs []Run
	for i := 0; i < 6; i++ {
		runs = append(runs, Run{
			Label:  fmt.Sprintf("point-%d", i),
			Scheme: scheme,
			W:      w,
			HW:     cfg.HW,
			X:      float64(i),
		})
	}
	cfg.Workers = 4
	rows := cfg.RunAll(runs)
	if got := calls.Load(); got != 1 {
		t.Errorf("Place called %d times for 6 identical runs, want 1", got)
	}
	for i, r := range rows {
		if r.Err != nil {
			t.Fatalf("row %d: %v", i, r.Err)
		}
		if r.Stats != rows[0].Stats {
			t.Errorf("row %d stats diverge from row 0 despite identical runs", i)
		}
	}
}

// TestPlacementCacheDistinguishesKeys checks the cache does not conflate
// distinct schemes or hardware: different keys recompute.
func TestPlacementCacheDistinguishesKeys(t *testing.T) {
	cfg := quickCfg()
	cfg.Requests = 5
	w, err := cfg.baseWorkload(0)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	hw2 := cfg.HW
	hw2.DrivesPerLib++
	runs := []Run{
		{Label: "a", Scheme: countingScheme{Scheme: placement.ParallelBatch{M: 2, K: cfg.K}, calls: &calls}, W: w, HW: cfg.HW},
		{Label: "b", Scheme: countingScheme{Scheme: placement.ParallelBatch{M: 3, K: cfg.K}, calls: &calls}, W: w, HW: cfg.HW},
		{Label: "c", Scheme: countingScheme{Scheme: placement.ParallelBatch{M: 2, K: cfg.K}, calls: &calls}, W: w, HW: hw2},
	}
	rows := cfg.RunAll(runs)
	for i, r := range rows {
		if r.Err != nil {
			t.Fatalf("row %d: %v", i, r.Err)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("Place called %d times for 3 distinct keys, want 3", got)
	}
}

// precomputed returns the clustering filled into a run's scheme, if any.
func precomputed(r Run) *cluster.Result {
	switch s := r.Scheme.(type) {
	case placement.ClusterProbability:
		return s.Precomputed
	case placement.ParallelBatch:
		return s.Precomputed
	}
	return nil
}

// TestClusterStageMemoized checks RunAll's cluster stage: every distinct
// (workload, cluster.Config) key of a sweep clusters exactly once, runs
// sharing a key share one result, schemes that never cluster are left
// alone, the caller's runs are not modified, and the rows equal those of
// the same runs with their clusterings computed by hand.
func TestClusterStageMemoized(t *testing.T) {
	cfg := quickCfg()
	cfg.Requests = 5
	w1, err := cfg.baseWorkload(0)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workload.ReplaceAlpha(w1, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	single := cluster.Config{Linkage: cluster.Single}
	var runs []Run
	for _, w := range []*model.Workload{w1, w2} {
		for _, sch := range cfg.threeSchemes() {
			runs = append(runs, Run{Scheme: sch, W: w, HW: cfg.HW})
		}
	}
	runs = append(runs,
		Run{Scheme: placement.ParallelBatch{M: 2, K: cfg.K}, W: w1, HW: cfg.HW},
		Run{Scheme: placement.ParallelBatch{M: cfg.M, K: cfg.K, Clustering: single}, W: w1, HW: cfg.HW},
		Run{Scheme: placement.ParallelBatch{M: cfg.M, K: cfg.K, NoRefine: true}, W: w1, HW: cfg.HW},
	)

	staged := cfg.clusterStage(runs)
	for i, r := range runs {
		if precomputed(r) != nil {
			t.Fatalf("clusterStage modified the caller's run %d", i)
		}
	}
	w1Default := precomputed(staged[1])
	groups := []struct {
		name string
		idx  []int
	}{
		{"w1 default", []int{1, 2, 6}},
		{"w2 default", []int{4, 5}},
		{"w1 single", []int{7}},
	}
	seen := map[*cluster.Result]string{}
	for _, g := range groups {
		res := precomputed(staged[g.idx[0]])
		if res == nil {
			t.Fatalf("%s: run %d has no clustering", g.name, g.idx[0])
		}
		if other, dup := seen[res]; dup {
			t.Errorf("%s shares its clustering with %s", g.name, other)
		}
		seen[res] = g.name
		for _, i := range g.idx[1:] {
			if precomputed(staged[i]) != res {
				t.Errorf("%s: run %d has a different clustering than run %d", g.name, i, g.idx[0])
			}
		}
	}
	for _, i := range []int{0, 3, 8} {
		if precomputed(staged[i]) != nil {
			t.Errorf("run %d (%s) got a clustering it never uses", i, staged[i].Scheme.Name())
		}
	}

	col := telemetry.NewCollector(telemetry.NewRegistry())
	counted := cfg
	counted.Telemetry = col
	rows := counted.RunAll(runs)
	if got := col.ClusteringsTarget.Value(); got != int64(len(groups)) {
		t.Errorf("clusterings target = %d, want %d", got, len(groups))
	}
	if got := col.ClusteringsCompleted.Value(); got != uint64(len(groups)) {
		t.Errorf("clusterings completed = %d, want %d", got, len(groups))
	}

	w2Default, err := cluster.Run(w2, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w1Single, err := cluster.Run(w1, single)
	if err != nil {
		t.Fatal(err)
	}
	byHand := slices.Clone(runs)
	for _, g := range []struct {
		res *cluster.Result
		idx []int
	}{{w1Default, []int{1, 2, 6}}, {w2Default, []int{4, 5}}, {w1Single, []int{7}}} {
		for _, i := range g.idx {
			byHand[i].Scheme = byHand[i].Scheme.(clusteringScheme).WithPrecomputed(g.res)
		}
	}
	want := cfg.RunAll(byHand)
	for i := range want {
		if rows[i].Err != nil || want[i].Err != nil {
			t.Fatalf("row %d: %v / %v", i, rows[i].Err, want[i].Err)
		}
		if rows[i].Stats != want[i].Stats || rows[i].TapesUsed != want[i].TapesUsed {
			t.Errorf("row %d (%s) differs from the hand-clustered run", i, rows[i].Scheme)
		}
	}
}
