package placement

import (
	"paralleltape/internal/cluster"
	"paralleltape/internal/model"
	"paralleltape/internal/tape"
)

// ClusterProbability is the [20] (Li & Prabhakar, MSS'02) baseline: objects
// with strong access relationships are clustered and each cluster is placed
// on a single tape, minimizing tape switches under the assumption that
// media switch time dominates. Clusters are packed onto tapes in
// decreasing cluster-probability order; a cluster that does not fit the
// remaining space of any open tape spills onto a new one (and, if larger
// than a whole cartridge, across several). There is deliberately no
// transfer parallelism — that is the scheme's documented weakness in the
// paper's Figures 8 and 9.
type ClusterProbability struct {
	// K is the capacity utilization coefficient; zero means DefaultK.
	K float64
	// Clustering configures §5.1 clustering; the zero value means
	// cluster.DefaultConfig().
	Clustering cluster.Config
	// Precomputed, if non-nil, supplies a clustering result computed for
	// exactly this workload, skipping the internal cluster.Run call. The
	// experiment harness uses it to share one clustering across schemes.
	Precomputed *cluster.Result
}

// Name implements Scheme.
func (s ClusterProbability) Name() string { return "cluster-probability" }

// ClusteringNeeded reports the clustering Place computes: its
// configuration, and false when Place computes none because Precomputed
// is set.
func (s ClusterProbability) ClusteringNeeded() (cluster.Config, bool) {
	return s.Clustering, s.Precomputed == nil
}

// WithPrecomputed returns the scheme with res as its Precomputed
// clustering; res must be the clustering ClusteringNeeded names.
func (s ClusterProbability) WithPrecomputed(res *cluster.Result) Scheme {
	s.Precomputed = res
	return s
}

// Place implements Scheme.
func (s ClusterProbability) Place(w *model.Workload, hw tape.Hardware) (*Result, error) {
	k := s.K
	if k == 0 {
		k = DefaultK
	}
	if err := checkFits(w, hw, k); err != nil {
		return nil, err
	}
	res := s.Precomputed
	if cfg, ok := s.ClusteringNeeded(); ok {
		var err error
		if res, err = cluster.Run(w, cfg); err != nil {
			return nil, err
		}
	}

	b := newBuilder(w, hw, w.ObjectProbs())
	kCap := int64(float64(hw.Capacity) * k)
	nextRank := 0
	// Open tapes still eligible for packing, in creation order. Keys are
	// retired once too full to be useful, keeping the fit scan short.
	type open struct {
		key    tape.Key
		budget int64
	}
	var opens []open
	newTape := func() (int, error) {
		key, err := roundRobinKey(nextRank, hw)
		if err != nil {
			return -1, err
		}
		nextRank++
		opens = append(opens, open{key: key, budget: kCap})
		return len(opens) - 1, nil
	}
	// place puts ids onto the first open tape with room for all of them,
	// else onto a new tape, spilling greedily if even a fresh cartridge
	// cannot hold the whole set.
	place := func(ids []model.ObjectID, bytes int64) error {
		if bytes <= kCap {
			slot := -1
			for i := range opens {
				if opens[i].budget >= bytes {
					slot = i
					break
				}
			}
			if slot < 0 {
				var err error
				if slot, err = newTape(); err != nil {
					return err
				}
			}
			for _, id := range ids {
				if err := b.add(opens[slot].key, id); err != nil {
					return err
				}
			}
			opens[slot].budget -= bytes
			return nil
		}
		// Oversized cluster: fill fresh cartridges back to back.
		slot, err := newTape()
		if err != nil {
			return err
		}
		for _, id := range ids {
			size := w.Objects[id].Size
			if opens[slot].budget < size {
				if slot, err = newTape(); err != nil {
					return err
				}
			}
			if err := b.add(opens[slot].key, id); err != nil {
				return err
			}
			opens[slot].budget -= size
		}
		return nil
	}

	// Clusters arrive sorted by decreasing probability from cluster.Run.
	for _, c := range res.Clusters {
		if err := place(c.Objects, c.Bytes); err != nil {
			return nil, err
		}
	}
	// Unreferenced (probability-zero) objects fill remaining space.
	for _, id := range res.Unreferenced {
		if err := place([]model.ObjectID{id}, w.Objects[id].Size); err != nil {
			return nil, err
		}
	}

	cat, tapeProb, err := b.finish(alignAll(AlignOrganPipe))
	if err != nil {
		return nil, err
	}
	mounts, pinned := hottestMounts(hw, tapeProb)
	return &Result{
		Scheme:        s.Name(),
		Catalog:       cat,
		InitialMounts: mounts,
		Pinned:        pinned,
		TapeProb:      tapeProb,
		TapesUsed:     nextRank,
	}, nil
}
