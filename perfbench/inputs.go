package main

import (
	"paralleltape/internal/cluster"
	"paralleltape/internal/dist"
	"paralleltape/internal/experiments"
	"paralleltape/internal/faults"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// The inputs below restate, from public functions, what the experiments
// package derives internally for the fig6 and chaos exhibits. The
// fig6-sweep traced run checks the restatement: its replay must reproduce
// experiments.ByID("fig6") bit for bit.

// fig6Scale is the fig6-sweep population scale. Paper scale (1.0) takes
// about 37 s per sweep on a 2-vCPU host, too long to repeat within one
// run; at 0.6 clustering still takes over 90% of the sweep.
const fig6Scale = 0.6

// fig6ReqBytes is Figure 6's quoted mean request size at paper scale.
const fig6ReqBytes = 213 * float64(units.GB)

// fig6Alphas are Figure 6's popularity-skew points.
var fig6Alphas = []float64{0, 0.1, 0.3, 0.5, 0.7, 1.0}

// streamAlpha is the α point the request-stream and chaos-trace workloads
// simulate (the paper's default skew).
const streamAlpha = 0.3

// requestSeedMix is the runner's per-stream request-seed derivation:
// stream si of a run draws from rng.New((Seed+si) ^ requestSeedMix).
const requestSeedMix = 0x9E3779B97F4A7C15

// chaosFaultSeedMix and the profile below are the chaos exhibit's
// "mtbf 2500s" point.
const chaosFaultSeedMix = 0xC4A05

// fig6Config is the fig6-sweep experiment configuration: the paper's
// defaults with the population and the cartridge capacity scaled together,
// as experiments.Quick does.
func fig6Config(seed uint64) experiments.Config {
	c := experiments.Default()
	c.Seed = seed
	c.Scale = fig6Scale
	c.HW.Capacity = int64(float64(c.HW.Capacity) * c.Scale)
	return c
}

// streamConfig is the request-stream and chaos-trace configuration: the
// quick (0.2) scale every quick exhibit uses.
func streamConfig(seed uint64) experiments.Config {
	c := experiments.Quick()
	c.Seed = seed
	return c
}

// chaosProfile is the chaos exhibit's fault profile at drive MTBF 2500 s.
func chaosProfile(seed uint64) *faults.Profile {
	const mtbf = 2500
	return &faults.Profile{
		Seed:              seed ^ chaosFaultSeedMix,
		DriveMTBF:         mtbf,
		DriveRepair:       dist.Exponential{Mean: 600},
		RobotMTBF:         10 * mtbf,
		RobotRepair:       dist.Exponential{Mean: 300},
		MediaErrorPerRead: 0.002,
	}
}

// baseParams scales workload generation to c, as the experiments runner
// does for every exhibit.
func baseParams(c experiments.Config) workload.Params {
	p := workload.Defaults()
	p.NumObjects = max(200, int(float64(p.NumObjects)*c.Scale))
	if c.Scale != 1 {
		p.MinReqLen = max(2, int(float64(p.MinReqLen)*c.Scale))
		p.MaxReqLen = max(p.MinReqLen, int(float64(p.MaxReqLen)*c.Scale))
		if cap40 := c.HW.Capacity / 40; p.MaxObjSize > cap40 && cap40 > 0 {
			p.MaxObjSize = cap40
			if p.MinObjSize > p.MaxObjSize {
				p.MinObjSize = max(1024, p.MaxObjSize/64)
			}
		}
	}
	if p.MaxReqLen > p.NumObjects/4 {
		p.MaxReqLen = p.NumObjects / 4
		if p.MinReqLen > p.MaxReqLen {
			p.MinReqLen = max(1, p.MaxReqLen/2)
		}
	}
	return p
}

// alphaWorkloads generates the base workload for c, retargets its mean
// request size to Figure 6's (scaled), and derives one workload per α.
func alphaWorkloads(tr *tracer, c experiments.Config, alphas []float64) ([]*model.Workload, error) {
	id := tr.begin(spGenerate, -1)
	base, err := workload.Generate(baseParams(c), rng.New(c.Seed))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(spTargetBytes, -1)
	_, err = workload.TargetMeanRequestBytes(base, fig6ReqBytes*c.Scale)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	ws := make([]*model.Workload, len(alphas))
	for i, a := range alphas {
		id = tr.begin(spReplaceAlpha, -1)
		ws[i], err = workload.ReplaceAlpha(base, a)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// clusterRun is cluster.Run with the exhibits' default configuration.
func clusterRun(tr *tracer, w *model.Workload) (*cluster.Result, error) {
	id := tr.begin(spCluster, -1)
	defer tr.end(id)
	return cluster.Run(w, cluster.DefaultConfig())
}

// threeSchemes is the paper's scheme trio as the exhibits build it, in
// the exhibits' row order, sharing one clustering.
func threeSchemes(c experiments.Config, cl *cluster.Result) []placement.Scheme {
	return []placement.Scheme{
		placement.ObjectProbability{K: c.K},
		placement.ClusterProbability{K: c.K, Precomputed: cl},
		placement.ParallelBatch{M: c.M, K: c.K, Precomputed: cl},
	}
}

// parallelBatchIndex is the parallel-batch scheme's index in threeSchemes;
// the simulated metrics are reported for it, the paper's proposal.
const parallelBatchIndex = 2

// place runs one scheme's placement.
func place(tr *tracer, s placement.Scheme, w *model.Workload, c experiments.Config) (*placement.Result, error) {
	id := tr.begin(spPlace, -1)
	defer tr.end(id)
	return s.Place(w, c.HW)
}

// drawRequests draws n requests from stream si of the runner's request-seed
// derivation.
func drawRequests(tr *tracer, w *model.Workload, seed uint64, si, n int) ([]*model.Request, error) {
	id := tr.begin(spRequestStream, -1)
	defer tr.end(id)
	st, err := workload.NewRequestStream(w, rng.New((seed+uint64(si))^requestSeedMix))
	if err != nil {
		return nil, err
	}
	return st.Draw(n), nil
}
