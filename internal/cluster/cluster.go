// Package cluster implements §5.1: hierarchical clustering of objects by
// co-access similarity. The similarity of a set of objects is the total
// probability of the requests that contain the whole set; following
// Johnson's agglomerative scheme [17], objects are merged bottom-up and the
// hierarchy is cut at a preset probability threshold.
//
// # Atoms
//
// The paper notes that "requests information are used to reduce the
// clustering computation costs". We push that idea to its limit: two
// objects contained in exactly the same set of requests are
// indistinguishable to every linkage criterion, so they are collapsed into
// one atom before any pairwise work. In the paper's workload (30,000
// objects, 300 requests, ~120 objects each) most objects appear in exactly
// one request, so the ~21,000 referenced objects collapse into a few
// thousand atoms and the pairwise similarity graph shrinks from millions of
// object pairs to a few hundred thousand atom pairs — with bit-identical
// results to object-level clustering.
//
// # Data layout
//
// The whole pipeline runs on flat, index-addressed storage recycled across
// calls through a scratch free list: object→request and request→atom
// incidence as CSR index pairs, pairwise similarities as a sorted flat
// entry slice aggregated by a single scan, and live-cluster adjacency as an
// edge table — one record per linked cluster pair, holding both endpoints
// and the 16-byte linkage-specific aggregate — plus unordered spans of
// edge ids in one int32 arena. A merge updates or retargets edge records
// without searching or shifting any neighbor's span, and leaves the ids of
// edges it kills in place. The survivor's new span is rewritten in place
// when its old one ends the arena, else written at the tail; the arena is
// compacted in place, live spans sliding down, when merges strand too many
// dead ids. The next merge comes from an indexed heap holding one key per
// cluster (Müllner's generic algorithm): each cluster owns its pairs with
// larger-index clusters and is keyed at or above their best candidate, so
// the heap never holds more entries than there are clusters.
// docs/PERFORMANCE.md ("Placement pipeline") sketches the layout
// and the argument for why every transformation — including the optional
// parallel edge aggregation behind Config.Parallel — reproduces the
// original map-based results bit for bit. Run is safe for concurrent use;
// concurrent calls take separate scratches from the free list.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"paralleltape/internal/model"
)

// Linkage selects how inter-cluster similarity is derived from object-pair
// similarities when clusters grow beyond single objects.
type Linkage int

const (
	// Average linkage: mean pairwise similarity between members (default;
	// robust for the paper's request-cluster structure).
	Average Linkage = iota
	// Single linkage: maximum pairwise similarity (merges chains eagerly).
	Single
	// Complete linkage: minimum pairwise similarity (most conservative).
	Complete
)

func (l Linkage) String() string {
	switch l {
	case Average:
		return "average"
	case Single:
		return "single"
	case Complete:
		return "complete"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Config controls clustering.
type Config struct {
	// Threshold is the preset probability value the hierarchy is cut at:
	// merging stops when no cluster pair's linkage similarity reaches it.
	// Zero selects an automatic threshold of 0.9× the smallest positive
	// request probability: every request's exclusive objects then cohere
	// (their pairwise similarity is exactly that request's probability)
	// while chains across requests require genuinely shared mass. The
	// automatic value adapts to the workload's request count and skew.
	Threshold float64
	// Linkage selects the inter-cluster similarity criterion.
	Linkage Linkage
	// MaxObjects, if positive, refuses merges that would produce a cluster
	// with more objects (placement sometimes wants clusters bounded near
	// the batch width; §5.1's "general rule").
	MaxObjects int
	// MaxBytes, if positive, refuses merges that would exceed this total
	// size (a cluster must fit its tape batch).
	MaxBytes int64
	// Parallel fans the similarity-edge aggregation across
	// runtime.GOMAXPROCS workers. The result is bit-identical to the
	// sequential path at any worker count: workers only generate and sort
	// their chunk's pair contributions; every floating-point sum happens in
	// one sequential scan over the chunk-merged stream, which visits
	// contributions in global request order.
	Parallel bool
}

// DefaultConfig returns the configuration used by the paper reproduction:
// average linkage with the automatic (workload-relative) threshold.
func DefaultConfig() Config {
	return Config{Linkage: Average}
}

// Cluster is one output group.
type Cluster struct {
	Objects []model.ObjectID // sorted ascending
	Bytes   int64            // total size of member objects
	// Prob is the cluster access probability: the total probability of
	// requests touching at least one member (what cluster-probability
	// placement sorts by).
	Prob float64
	// Cohesion is the linkage similarity at which the final merge forming
	// this cluster happened (+Inf for singletons).
	Cohesion float64
}

// Result is the clustering output.
type Result struct {
	Clusters []Cluster
	// Unreferenced lists objects in no request at all (probability 0);
	// they are excluded from clustering and placed by schemes as cold
	// filler.
	Unreferenced []model.ObjectID
}

// atom is a maximal set of objects sharing one request signature.
type atom struct {
	objects []model.ObjectID
	bytes   int64
	reqs    []model.RequestID // sorted signature
}

// Run clusters the workload's objects under cfg.
func Run(w *model.Workload, cfg Config) (*Result, error) {
	workers := 1
	if cfg.Parallel {
		if n := runtime.GOMAXPROCS(0); n > workers {
			workers = n
		}
	}
	return runWorkers(w, cfg, workers)
}

// runWorkers is Run with an explicit edge-aggregation worker count; tests
// use it to exercise the parallel path regardless of GOMAXPROCS.
func runWorkers(w *model.Workload, cfg Config, workers int) (*Result, error) {
	if cfg.Threshold < 0 || math.IsNaN(cfg.Threshold) {
		return nil, fmt.Errorf("cluster: threshold must be non-negative, got %v", cfg.Threshold)
	}
	if cfg.Threshold == 0 {
		minProb := math.Inf(1)
		for i := range w.Requests {
			if p := w.Requests[i].Prob; p > 0 && p < minProb {
				minProb = p
			}
		}
		if math.IsInf(minProb, 1) {
			minProb = 1
		}
		cfg.Threshold = 0.9 * minProb
	}
	if cfg.Linkage != Average && cfg.Linkage != Single && cfg.Linkage != Complete {
		return nil, fmt.Errorf("cluster: unknown linkage %d", int(cfg.Linkage))
	}
	s := getScratch()
	defer putScratch(s)
	atoms, unreferenced := buildAtomsInto(w, s)
	atoms = splitAtomsInto(w, atoms, cfg, s)
	merged := agglomerateInto(w, atoms, cfg, s, workers)
	res := &Result{Clusters: merged, Unreferenced: unreferenced}
	// Objects[0] is unique per cluster (the clusters partition the
	// referenced objects), so this comparison is a total order and the
	// unstable sort cannot reorder equals.
	slices.SortFunc(res.Clusters, func(a, b Cluster) int {
		if a.Prob != b.Prob {
			return cmp.Compare(b.Prob, a.Prob)
		}
		return cmp.Compare(a.Objects[0], b.Objects[0])
	})
	return res, nil
}

// buildAtoms groups objects by request signature. Test-only compatibility
// shim over buildAtomsInto; the returned atoms reference the scratch, which
// is deliberately not recycled.
func buildAtoms(w *model.Workload) ([]atom, []model.ObjectID) {
	return buildAtomsInto(w, &scratch{})
}

// buildAtomsInto groups objects by request signature using s for every
// intermediate. The returned atoms alias s (objects and reqs point into
// scratch arenas) and are valid until the next use of s; unreferenced is
// freshly allocated.
//
// Atoms come out ordered by their smallest member object ID, which is
// exactly the first-seen order of the old map-based grouping (objects are
// scanned in ascending ID order, so a group is first seen at its minimum
// member).
func buildAtomsInto(w *model.Workload, s *scratch) ([]atom, []model.ObjectID) {
	nObj := len(w.Objects)
	// Object → request CSR index (replaces model.RequestsByObject, which
	// allocates one slice per object).
	off := growI32(s.objReqOff, nObj+1)
	for i := range w.Requests {
		for _, id := range w.Requests[i].Objects {
			off[id+1]++
		}
	}
	for i := 0; i < nObj; i++ {
		off[i+1] += off[i]
	}
	reqs := growSlice(s.objReqs, int(off[nObj]))
	cur := growSlice(s.cursor, nObj)
	copy(cur, off[:nObj])
	for i := range w.Requests {
		rid := w.Requests[i].ID
		for _, id := range w.Requests[i].Objects {
			reqs[cur[id]] = rid
			cur[id]++
		}
	}
	nRef, nUnref := 0, 0
	for i := 0; i < nObj; i++ {
		span := reqs[off[i]:off[i+1]]
		if len(span) == 0 {
			nUnref++
			continue
		}
		nRef++
		if len(span) > 1 {
			slices.Sort(span)
		}
	}
	var unreferenced []model.ObjectID
	if nUnref > 0 {
		unreferenced = make([]model.ObjectID, 0, nUnref)
		for i := 0; i < nObj; i++ {
			if off[i] == off[i+1] {
				unreferenced = append(unreferenced, model.ObjectID(i))
			}
		}
	}
	// Sort the referenced IDs by (signature, ID): equal signatures become
	// contiguous runs — the atoms — and the ID tiebreak keeps each atom's
	// member list ascending.
	ids := growSlice(s.ids, nRef)
	ids = ids[:0]
	for i := 0; i < nObj; i++ {
		if off[i] != off[i+1] {
			ids = append(ids, int32(i))
		}
	}
	slices.SortFunc(ids, func(x, y int32) int {
		if c := slices.Compare(reqs[off[x]:off[x+1]], reqs[off[y]:off[y+1]]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	objArena := growSlice(s.atomObjs, nRef)
	for i, id := range ids {
		objArena[i] = model.ObjectID(id)
	}
	atoms := s.atoms[:0]
	for lo := 0; lo < len(ids); {
		x := ids[lo]
		sig := reqs[off[x]:off[x+1]]
		hi := lo + 1
		for hi < len(ids) {
			y := ids[hi]
			if !slices.Equal(sig, reqs[off[y]:off[y+1]]) {
				break
			}
			hi++
		}
		a := atom{objects: objArena[lo:hi:hi], reqs: sig}
		for _, id := range a.objects {
			a.bytes += w.Objects[id].Size
		}
		atoms = append(atoms, a)
		lo = hi
	}
	slices.SortFunc(atoms, func(a, b atom) int {
		return cmp.Compare(a.objects[0], b.objects[0])
	})
	s.objReqOff, s.objReqs, s.cursor = off, reqs, cur
	s.ids, s.atomObjs, s.atoms = ids, objArena, atoms
	return atoms, unreferenced
}

// splitAtomsInto breaks atoms that already violate the configured caps into
// compliant chunks. Objects within an atom are interchangeable, so any
// split preserves clustering semantics; merges between the chunks are then
// refused by the same caps during agglomeration. Chunks are contiguous
// subslices of the parent atom's member list, so no object storage moves.
func splitAtomsInto(w *model.Workload, atoms []atom, cfg Config, s *scratch) []atom {
	if cfg.MaxObjects <= 0 && cfg.MaxBytes <= 0 {
		return atoms
	}
	out := s.split[:0]
	for _, a := range atoms {
		lo := 0
		var bytes int64
		for i, id := range a.objects {
			size := w.Objects[id].Size
			overObjects := cfg.MaxObjects > 0 && i-lo+1 > cfg.MaxObjects
			overBytes := cfg.MaxBytes > 0 && i > lo && bytes+size > cfg.MaxBytes
			if overObjects || overBytes {
				out = append(out, atom{objects: a.objects[lo:i:i], bytes: bytes, reqs: a.reqs})
				lo, bytes = i, 0
			}
			bytes += size
		}
		if lo < len(a.objects) {
			n := len(a.objects)
			out = append(out, atom{objects: a.objects[lo:n:n], bytes: bytes, reqs: a.reqs})
		}
	}
	s.split = out
	return out
}

// pairEdge accumulates the similarity structure between two atoms: every
// cross-object pair between atoms a and b has the identical similarity
// s(a,b) = Σ P(R) over requests containing both atoms.
type pairEdge struct {
	a, b int // atom indices, a < b
	sim  float64
}

// edgeEntry is one request's probability contribution to one atom pair,
// keyed by the packed pair (a<<32 | b). The flat entry stream replaces the
// old map[int64]float64 accumulator: a stable sort by key groups each
// pair's contributions while preserving their request order, so the scan
// in scanEntries performs the identical floating-point additions in the
// identical order.
type edgeEntry struct {
	key int64
	p   float64
}

// buildEdges computes s(a,b) for all co-occurring atom pairs. Test-only
// compatibility shim over buildEdgesInto.
func buildEdges(w *model.Workload, atoms []atom) []pairEdge {
	s := &scratch{}
	return slices.Clone(buildEdgesInto(w, atoms, s, 1))
}

// buildEdgesInto computes s(a,b) for all co-occurring atom pairs into
// s.edges, fanning pair generation across workers chunks when workers > 1.
// Output is sorted by (a, b) and bit-identical at any worker count.
func buildEdgesInto(w *model.Workload, atoms []atom, s *scratch, workers int) []pairEdge {
	nReq := len(w.Requests)
	// Request → atom CSR index. Atoms are scanned in index order, so each
	// request's member span comes out ascending; pair keys within one
	// request are then generated in ascending order too.
	rOff := growI32(s.reqOff, nReq+1)
	for ai := range atoms {
		for _, r := range atoms[ai].reqs {
			rOff[r+1]++
		}
	}
	for i := 0; i < nReq; i++ {
		rOff[i+1] += rOff[i]
	}
	rAtoms := growSlice(s.reqAtoms, int(rOff[nReq]))
	cur := growSlice(s.cursor, nReq)
	copy(cur, rOff[:nReq])
	for ai := range atoms {
		for _, r := range atoms[ai].reqs {
			rAtoms[cur[r]] = int32(ai)
			cur[r]++
		}
	}
	pairs := 0
	for ri := 0; ri < nReq; ri++ {
		m := int(rOff[ri+1] - rOff[ri])
		pairs += m * (m - 1) / 2
	}
	s.reqOff, s.reqAtoms, s.cursor = rOff, rAtoms, cur

	// genEntries emits every pair contribution for requests [lo, hi) into
	// dst (sized exactly) and stable-sorts them by key, so equal keys stay
	// in request order. tmp and count are scratch for the radix sort; count
	// must hold len(atoms) slots.
	genEntries := func(dst, tmp []edgeEntry, count []int32, lo, hi int) {
		pos := 0
		for ri := lo; ri < hi; ri++ {
			members := rAtoms[rOff[ri]:rOff[ri+1]]
			p := w.Requests[ri].Prob
			for i := 0; i < len(members); i++ {
				a := int64(members[i]) << 32
				for j := i + 1; j < len(members); j++ {
					dst[pos] = edgeEntry{key: a | int64(members[j]), p: p}
					pos++
				}
			}
		}
		radixSortEntries(dst, tmp, count)
	}

	if workers <= 1 || pairs == 0 {
		entries := growSlice(s.entries, pairs)
		tmp := growSlice(s.entriesTmp, pairs)
		count := growSlice(s.counts, len(atoms))
		genEntries(entries, tmp, count, 0, nReq)
		s.entries, s.entriesTmp, s.counts = entries, tmp, count
		s.edges = scanEntries(s.edges[:0], entries)
		return s.edges
	}

	// Cut the request range into ≤ workers contiguous chunks of roughly
	// equal pair weight. Chunking only affects scheduling: the merge below
	// replays contributions in global request order regardless of where
	// the cuts land.
	type chunk struct{ lo, hi, pairs int }
	chunks := make([]chunk, 0, workers)
	target := (pairs + workers - 1) / workers
	c := chunk{lo: 0}
	for ri := 0; ri < nReq; ri++ {
		m := int(rOff[ri+1] - rOff[ri])
		c.pairs += m * (m - 1) / 2
		if c.pairs >= target && len(chunks) < workers-1 {
			c.hi = ri + 1
			chunks = append(chunks, c)
			c = chunk{lo: ri + 1}
		}
	}
	c.hi = nReq
	chunks = append(chunks, c)

	for len(s.chunkBufs) < len(chunks) {
		s.chunkBufs = append(s.chunkBufs, nil)
		s.chunkTmps = append(s.chunkTmps, nil)
		s.chunkCounts = append(s.chunkCounts, nil)
	}
	var wg sync.WaitGroup
	for ci := 1; ci < len(chunks); ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			s.chunkBufs[ci] = growSlice(s.chunkBufs[ci], chunks[ci].pairs)
			s.chunkTmps[ci] = growSlice(s.chunkTmps[ci], chunks[ci].pairs)
			s.chunkCounts[ci] = growSlice(s.chunkCounts[ci], len(atoms))
			genEntries(s.chunkBufs[ci], s.chunkTmps[ci], s.chunkCounts[ci], chunks[ci].lo, chunks[ci].hi)
		}(ci)
	}
	s.chunkBufs[0] = growSlice(s.chunkBufs[0], chunks[0].pairs)
	s.chunkTmps[0] = growSlice(s.chunkTmps[0], chunks[0].pairs)
	s.chunkCounts[0] = growSlice(s.chunkCounts[0], len(atoms))
	genEntries(s.chunkBufs[0], s.chunkTmps[0], s.chunkCounts[0], chunks[0].lo, chunks[0].hi)
	wg.Wait()

	// Sequential merge-aggregate: for each key (ascending), sum its
	// contributions chunk by chunk in chunk-index order. Chunks cover
	// contiguous ascending request ranges and each chunk's equal-key run
	// is in request order (stable sort), so the summation order is the
	// global request order — the same order the sequential scan (and the
	// old map accumulator) used.
	cursors := make([]int, len(chunks))
	edges := s.edges[:0]
	for {
		bestKey := int64(0)
		found := false
		for ci := range chunks {
			buf := s.chunkBufs[ci]
			if cursors[ci] < len(buf) {
				if k := buf[cursors[ci]].key; !found || k < bestKey {
					bestKey, found = k, true
				}
			}
		}
		if !found {
			break
		}
		sum, first := 0.0, true
		for ci := range chunks {
			buf := s.chunkBufs[ci]
			for cursors[ci] < len(buf) && buf[cursors[ci]].key == bestKey {
				if first {
					sum, first = buf[cursors[ci]].p, false
				} else {
					sum += buf[cursors[ci]].p
				}
				cursors[ci]++
			}
		}
		edges = append(edges, pairEdge{
			a: int(bestKey >> 32), b: int(bestKey & 0xFFFFFFFF), sim: sum,
		})
	}
	s.edges = edges
	return edges
}

// radixSortEntries stable-sorts entries by key with two counting passes —
// low half (b), then high half (a) of the packed pair key. Both halves are
// atom indices, so one count array of len(atoms) slots serves both passes
// and stays cache-resident; being a stable sort, equal keys keep their
// request order exactly as the comparison sort it replaced did. tmp must
// be at least len(entries) long.
func radixSortEntries(entries, tmp []edgeEntry, count []int32) {
	tmp = tmp[:len(entries)]
	for pass := 0; pass < 2; pass++ {
		shift := uint(32 * pass)
		for i := range count {
			count[i] = 0
		}
		for i := range entries {
			count[int32(entries[i].key>>shift)]++
		}
		sum := int32(0)
		for d := range count {
			c := count[d]
			count[d] = sum
			sum += c
		}
		for i := range entries {
			d := int32(entries[i].key >> shift)
			tmp[count[d]] = entries[i]
			count[d]++
		}
		entries, tmp = tmp, entries
	}
	// Two swaps: the sorted data ended up back in the caller's slice.
}

// scanEntries aggregates a key-sorted entry stream into edges. Entries with
// equal keys are summed left to right, which by the stable sort is their
// request order — matching the old map accumulator addition for addition.
func scanEntries(edges []pairEdge, entries []edgeEntry) []pairEdge {
	for i := 0; i < len(entries); {
		k := entries[i].key
		sum := entries[i].p
		j := i + 1
		for j < len(entries) && entries[j].key == k {
			sum += entries[j].p
			j++
		}
		edges = append(edges, pairEdge{a: int(k >> 32), b: int(k & 0xFFFFFFFF), sim: sum})
		i = j
	}
	return edges
}

// link is the pair aggregate between two live clusters, specialised to
// the run's linkage so an edge record carries 16 bytes of it:
//
//   - Average: v is Σ over cross object pairs of their similarity;
//   - Single: v is the maximum pair similarity;
//   - Complete: v is the minimum pair similarity and pairs counts the
//     cross object pairs with nonzero similarity (a pair with zero
//     similarity drags the minimum to zero).
//
// pairs is zero for the other linkages.
type link struct {
	v     float64
	pairs int64
}

// initLink is the aggregate of the sizeA×sizeB cross pairs between two
// atoms, every one of which has similarity sim.
func initLink(l Linkage, sim float64, sizeA, sizeB int64) link {
	switch l {
	case Single:
		return link{v: sim}
	case Complete:
		return link{v: sim, pairs: sizeA * sizeB}
	default:
		return link{v: sim * float64(sizeA*sizeB)}
	}
}

// value is the linkage similarity of two clusters of sizeA and sizeB
// objects whose aggregate is li.
func (li link) value(l Linkage, sizeA, sizeB int64) float64 {
	switch l {
	case Single:
		return li.v
	case Complete:
		if li.pairs < sizeA*sizeB {
			return 0
		}
		return li.v
	default: // zero-sim pairs count in the denominator
		return li.v / float64(sizeA*sizeB)
	}
}

// mergeLink folds y into x: the aggregate of a cluster against the union
// of two others.
func mergeLink(l Linkage, x, y link) link {
	switch l {
	case Single:
		if y.v > x.v {
			x.v = y.v
		}
	case Complete:
		if y.v < x.v {
			x.v = y.v
		}
		x.pairs += y.pairs
	default:
		x.v += y.v
	}
	return x
}

// candidate proposes merging clusters a < b at linkage similarity sim,
// across the edge e that joins them. It is the key of a's slot in the
// cluster heap: a owns every pair it forms with a larger index. A key may
// be stale: b may have been absorbed since, or the pair's candidate may
// have changed; the merge loop re-derives it from edge e before trusting
// it (see agglomerateInto).
type candidate struct {
	sim float64
	ab  uint64 // packed pair a<<32 | b; one compare breaks (a, b) ties
	e   int32
}

func (c candidate) pair() (int32, int32) {
	return int32(c.ab >> 32), int32(uint32(c.ab))
}

// candLess orders by descending sim, then ascending packed pair — the
// cluster indices are non-negative, so the uint64 comparison is exactly
// the (a, b) lexicographic order.
func candLess(x, y candidate) bool {
	if x.sim != y.sim {
		return x.sim > y.sim
	}
	return x.ab < y.ab
}

// clusterHeap is an indexed 4-ary max-heap on candLess holding at most one
// key per cluster, so it never holds more entries than there are clusters
// and needs no dead-entry sweeps. A slot stores its key itself, and the
// key's first cluster is the slot's owner; pos[x] is x's slot, or -1 when
// x is not in the heap. The wide nodes halve the tree depth, and sifts
// move a hole rather than swapping: a displaced key is written once, at
// its final slot.
//
// Heap shape does not affect the merge sequence: keys of distinct owners
// differ in their pair, so candLess is a strict total order on the heap
// and its root is fully determined.
type clusterHeap struct {
	keys []candidate
	pos  []int32
}

// reset empties the heap for clusters 0..n-1.
func (h *clusterHeap) reset(n int) {
	h.keys = h.keys[:0]
	h.pos = growSlice(h.pos, n)
	for i := range h.pos {
		h.pos[i] = -1
	}
}

// raise sets the key of c's owner to the better of its key and c,
// inserting the owner if it is not in the heap.
func (h *clusterHeap) raise(c candidate) {
	if i := h.pos[c.ab>>32]; i < 0 || candLess(c, h.keys[i]) {
		h.set(c)
	}
}

// set makes c the key of its owner, inserting the owner if it is not in
// the heap.
func (h *clusterHeap) set(c candidate) {
	i := h.pos[c.ab>>32]
	switch {
	case i < 0:
		h.keys = append(h.keys, c)
		h.up(len(h.keys)-1, c)
	case candLess(c, h.keys[i]):
		h.up(int(i), c)
	default:
		h.down(int(i), c)
	}
}

// remove takes x out of the heap, if it is in it; the last slot's key
// fills the hole.
func (h *clusterHeap) remove(x int32) {
	i := h.pos[x]
	if i < 0 {
		return
	}
	h.pos[x] = -1
	n := len(h.keys) - 1
	last := h.keys[n]
	h.keys = h.keys[:n]
	switch {
	case int(i) == n:
	case candLess(last, h.keys[i]):
		h.up(int(i), last)
	default:
		h.down(int(i), last)
	}
}

// up places c at slot i or above it; every slot below i is already
// heap-ordered against its parent.
func (h *clusterHeap) up(i int, c candidate) {
	keys := h.keys
	for i > 0 {
		p := (i - 1) / 4
		if !candLess(c, keys[p]) {
			break
		}
		keys[i] = keys[p]
		h.pos[keys[i].ab>>32] = int32(i)
		i = p
	}
	keys[i] = c
	h.pos[c.ab>>32] = int32(i)
}

// down places c in the subtree rooted at slot i, whose children are heaps.
func (h *clusterHeap) down(i int, c candidate) {
	keys := h.keys
	n := len(keys)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := min(first+4, n)
		best := first
		for j := first + 1; j < end; j++ {
			if candLess(keys[j], keys[best]) {
				best = j
			}
		}
		if !candLess(keys[best], c) {
			break
		}
		keys[i] = keys[best]
		h.pos[keys[i].ab>>32] = int32(i)
		i = best
	}
	keys[i] = c
	h.pos[c.ab>>32] = int32(i)
}

// The edge table holds one record per linked pair of live clusters: its
// two endpoints and their pair aggregate, stored once for both sides. A
// live cluster's adjacency is the span [adjOff, adjOff+adjLen) of one
// int32 arena, holding the ids of its edges in no particular order; seen
// from endpoint k, the other end of edge e is u^v^k. A merge therefore
// updates a shared neighbor by writing the one record both spans name, and
// never searches or shifts a neighbor's span.
//
// An edge dies when one of its endpoints is absorbed and the surviving
// cluster already had an edge to the other endpoint, or when its two
// endpoints merge. Its id stays in the spans that hold it, skipped by
// every walk, until union rewrites the span or compaction drops it.

// edge is one record of the edge table; u < 0 marks a dead edge.
type edge struct {
	u, v int32
	li   link
}

// liveCluster is one active cluster during agglomeration. Member atoms are
// kept as an intrusive linked list through agg.atomNext (head/tail splice
// on merge, no copying); its edge ids are the arena span
// [adjOff, adjOff+adjLen), of which deg name live edges.
type liveCluster struct {
	objects  int64 // object count
	bytes    int64
	cohesion float64 // linkage value of the last merge
	adjOff   int32
	adjLen   int32
	deg      int32 // live edges (adjLen minus dead ones)
	atomHead int32
	atomTail int32
	alive    bool
}

// agg bundles the agglomeration state so merge steps can be methods. It
// lives in the scratch: every slice is a buffer recycled across runs.
type agg struct {
	cfg      Config
	words    int // request-bitset words per cluster
	clusters []liveCluster
	parent   []int32 // union-find with path halving
	atomNext []int32
	bits     []uint64
	edges    []edge  // the edge table
	adj      []int32 // adjacency arena of edge ids
	// mark[k] is b's edge to k while union(a, b) runs, -1 otherwise.
	mark  []int32
	order []int32 // compaction scratch: spans in arena order
	live  int     // live entries in the arena (for the compaction trigger)
	// heap keys each live cluster x by a candidate at or above the current
	// candidate of every mergeable pair (x, y), y > x; see agglomerateInto.
	heap clusterHeap
}

// unionHook, when set, runs after every union; tests use it to check the
// edge-table invariants mid-agglomeration.
var unionHook func(*agg)

func (g *agg) find(x int32) int32 {
	for g.parent[x] != x {
		g.parent[x] = g.parent[g.parent[x]]
		x = g.parent[x]
	}
	return x
}

// candidateFor returns the merge candidate for live clusters a and b (any
// order) joined by edge e; ok is false if the linkage value misses the
// threshold or the caps forbid the union.
func (g *agg) candidateFor(a, b, e int32) (c candidate, ok bool) {
	if a > b {
		a, b = b, a
	}
	ca, cb := &g.clusters[a], &g.clusters[b]
	if !ca.alive || !cb.alive {
		return c, false
	}
	sim := g.edges[e].li.value(g.cfg.Linkage, ca.objects, cb.objects)
	if sim < g.cfg.Threshold {
		return c, false
	}
	if g.cfg.MaxObjects > 0 && ca.objects+cb.objects > int64(g.cfg.MaxObjects) {
		return c, false
	}
	if g.cfg.MaxBytes > 0 && ca.bytes+cb.bytes > g.cfg.MaxBytes {
		return c, false
	}
	return candidate{sim: sim, ab: uint64(uint32(a))<<32 | uint64(uint32(b)), e: e}, true
}

// propose raises the key of the pair's owner to the merge candidate for a
// and b, if there is one.
func (g *agg) propose(a, b, e int32) {
	if c, ok := g.candidateFor(a, b, e); ok {
		g.heap.raise(c)
	}
}

// rescan sets x's key to the best current candidate among the pairs x
// owns, or takes x out of the heap if none of them may merge.
func (g *agg) rescan(x int32) {
	c := &g.clusters[x]
	var best candidate
	found := false
	for _, e := range g.adj[c.adjOff : c.adjOff+c.adjLen] {
		ed := &g.edges[e]
		if ed.u < 0 {
			continue
		}
		if k := ed.u ^ ed.v ^ x; k > x {
			if nc, ok := g.candidateFor(x, k, e); ok && (!found || candLess(nc, best)) {
				best, found = nc, true
			}
		}
	}
	if found {
		g.heap.set(best)
	} else {
		g.heap.remove(x)
	}
}

// appendLive appends the ids of span's live edges to the arena tail. The
// span may lie in the arena itself at or beyond the tail (compaction):
// each id is read before the tail can reach its slot.
func (g *agg) appendLive(span []int32) {
	for _, e := range span {
		if g.edges[e].u >= 0 {
			g.adj = append(g.adj, e)
		}
	}
}

// ensure guarantees capacity for need appended entries without moving the
// arena backing mid-merge. When at least half the arena is dead it
// compacts in place, otherwise it grows.
func (g *agg) ensure(need int) {
	if len(g.adj)+need <= cap(g.adj) {
		return
	}
	if g.live <= len(g.adj)/2 {
		g.compact()
		if len(g.adj)+need <= cap(g.adj) {
			return
		}
	}
	grown := make([]int32, len(g.adj), 2*cap(g.adj)+need)
	copy(grown, g.adj)
	g.adj = grown
}

// compact slides every live span down to the front of the arena in arena
// order, dropping dead edge ids and the spans of absorbed clusters, by
// re-appending the live ids to the emptied arena. A span never moves up
// (everything before it shrinks or stays), so no second arena is needed.
func (g *agg) compact() {
	order := g.order[:0]
	for i := range g.clusters {
		if c := &g.clusters[i]; c.alive && c.adjLen > 0 {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(x, y int32) int {
		return cmp.Compare(g.clusters[x].adjOff, g.clusters[y].adjOff)
	})
	adj := g.adj
	g.adj = adj[:0]
	for _, ci := range order {
		c := &g.clusters[ci]
		start := len(g.adj)
		g.appendLive(adj[c.adjOff : c.adjOff+c.adjLen])
		c.adjOff, c.adjLen = int32(start), int32(len(g.adj)-start)
	}
	g.live = len(g.adj)
	g.order = order
}

// union merges cluster b into a (a keeps its index), assuming a, b are live
// roots and the caller already validated the merge. a's new span holds a's
// live edges first, then b's edges to neighbors a did not have, retargeted
// to a. It is written at the arena tail, or over a's old span when that
// span already ends the arena (as after a's last union), sliding live ids
// down over dead ones. For a neighbor both had, a's edge takes the merged
// aggregate (a's first, as in the reference fold) and b's edge dies.
//
// b leaves the heap. Every pair (k, a) with k < a whose link changed
// raises k's key, and a's key becomes its exact best, taken over all the
// pairs it owns on the same walk. A pair (k, a) whose link is unchanged
// never gains similarity as a grows, so k's key still bounds it.
func (g *agg) union(a, b int32, sim float64) {
	ca, cb := &g.clusters[a], &g.clusters[b]
	// Reserve arena room first: a compaction here still sees both spans as
	// live and relocates them coherently before we capture them below.
	need := int(cb.deg)
	if int(ca.adjOff+ca.adjLen) != len(g.adj) {
		need += int(ca.deg)
	}
	g.ensure(need)
	g.parent[b] = a
	g.atomNext[ca.atomTail] = cb.atomHead
	ca.atomTail = cb.atomTail
	ca.objects += cb.objects
	ca.bytes += cb.bytes
	wa := g.bits[int(a)*g.words : (int(a)+1)*g.words]
	wb := g.bits[int(b)*g.words : (int(b)+1)*g.words]
	for wi := range wa {
		wa[wi] |= wb[wi]
	}
	ca.cohesion = sim
	cb.alive = false
	g.heap.remove(b)

	l := g.cfg.Linkage
	spanA := g.adj[ca.adjOff : ca.adjOff+ca.adjLen]
	spanB := g.adj[cb.adjOff : cb.adjOff+cb.adjLen]
	// Mark b's neighbors with b's edge to them; the a–b edge dies.
	for _, e := range spanB {
		ed := &g.edges[e]
		if ed.u < 0 {
			continue
		}
		if k := ed.u ^ ed.v ^ b; k != a {
			g.mark[k] = e
		} else {
			ed.u = -1
		}
	}
	// Truncating the arena to a's span start rewrites that span in place:
	// each id is read before the tail can reach its slot, and b's span
	// lies below it.
	base := len(g.adj)
	if int(ca.adjOff+ca.adjLen) == base {
		base = int(ca.adjOff)
		g.adj = g.adj[:base]
	}
	g.live -= int(ca.deg) + int(cb.deg)
	var best candidate
	found := false
	for _, e := range spanA {
		ed := &g.edges[e]
		if ed.u < 0 {
			continue
		}
		g.adj = append(g.adj, e)
		k := ed.u ^ ed.v ^ a
		eb := g.mark[k]
		if eb >= 0 {
			// Shared neighbor: fold b's aggregate into a's edge and kill
			// b's, which k's span then skips.
			ed.li = mergeLink(l, ed.li, g.edges[eb].li)
			g.edges[eb].u = -1
			g.mark[k] = -1
			g.clusters[k].deg--
			g.live--
		}
		if k < a {
			if eb >= 0 {
				g.propose(a, k, e)
			}
		} else if c, ok := g.candidateFor(a, k, e); ok && (!found || candLess(c, best)) {
			best, found = c, true
		}
	}
	for _, e := range spanB {
		ed := &g.edges[e]
		if ed.u < 0 {
			continue
		}
		// Neighbor of b only: a inherits the edge.
		k := ed.u ^ ed.v ^ b
		ed.u, ed.v = a, k
		g.mark[k] = -1
		g.adj = append(g.adj, e)
		if k < a {
			g.propose(a, k, e)
		} else if c, ok := g.candidateFor(a, k, e); ok && (!found || candLess(c, best)) {
			best, found = c, true
		}
	}
	ca.adjOff = int32(base)
	ca.adjLen = int32(len(g.adj) - base)
	ca.deg = ca.adjLen
	g.live += int(ca.deg)
	cb.adjLen, cb.deg = 0, 0
	if found {
		g.heap.set(best)
	} else {
		g.heap.remove(a)
	}
}

func agglomerateInto(w *model.Workload, atoms []atom, cfg Config, s *scratch, workers int) []Cluster {
	nReq := len(w.Requests)
	words := (nReq + 63) / 64
	pairs := buildEdgesInto(w, atoms, s, workers)
	n := len(atoms)

	// Pre-count adjacency degrees so every span is born at its final
	// initial size inside one arena.
	degree := growI32(s.degree, n)
	s.degree = degree
	for _, p := range pairs {
		degree[p.a]++
		degree[p.b]++
	}
	// The state lives in the scratch, so its buffers are recycled in place.
	g := &s.agg
	g.cfg, g.words, g.live = cfg, words, 2*len(pairs)
	clusters := growSlice(g.clusters, n)
	atomNext := growSlice(g.atomNext, n)
	parent := growSlice(g.parent, n)
	mark := growSlice(g.mark, n)
	bitsArena := growSlice(g.bits, words*n)
	for i := range bitsArena {
		bitsArena[i] = 0
	}
	edges := growSlice(g.edges, len(pairs))
	adj := growSlice(g.adj, 2*len(pairs))
	g.clusters, g.atomNext, g.parent, g.mark = clusters, atomNext, parent, mark
	g.bits, g.edges, g.adj = bitsArena, edges, adj
	off := int32(0)
	for i := range atoms {
		clusters[i] = liveCluster{
			objects:  int64(len(atoms[i].objects)),
			bytes:    atoms[i].bytes,
			cohesion: math.Inf(1),
			adjOff:   off,
			adjLen:   degree[i],
			deg:      degree[i],
			atomHead: int32(i),
			atomTail: int32(i),
			alive:    true,
		}
		off += degree[i]
		atomNext[i] = -1
		parent[i] = int32(i)
		mark[i] = -1
		cw := bitsArena[i*words : (i+1)*words]
		for _, r := range atoms[i].reqs {
			cw[int(r)/64] |= 1 << (uint(r) % 64)
		}
	}
	g.heap.reset(n)

	cur := growSlice(s.cursor, n)
	for i := range clusters {
		cur[i] = clusters[i].adjOff
	}
	for i, p := range pairs {
		e := int32(i)
		edges[e] = edge{
			u: int32(p.a), v: int32(p.b),
			li: initLink(cfg.Linkage, p.sim, clusters[p.a].objects, clusters[p.b].objects),
		}
		adj[cur[p.a]] = e
		cur[p.a]++
		adj[cur[p.b]] = e
		cur[p.b]++
		g.propose(int32(p.a), int32(p.b), e)
	}
	s.cursor = cur

	// Invariant: every live cluster x that owns a mergeable pair (x, y),
	// y > x, is in the heap keyed at or above that pair's current (sim,
	// pair) — union sets the survivor's key exactly and raises the owner
	// of every pair whose link it changes, and a pair whose link is
	// unchanged never gains similarity as its clusters grow. So a root key
	// that still matches its pair's current candidate is the global
	// maximum and merges, and the merge order is that of always merging
	// the best current pair. A root key that names an absorbed cluster, or
	// whose pair's candidate has changed, is replaced by its owner's exact
	// best.
	for len(g.heap.keys) > 0 {
		c := g.heap.keys[0]
		a, b := c.pair()
		// candidateFor reads edge e only if b is still live; then e still
		// joins exactly a and b (a is live: absorbed clusters leave the
		// heap).
		if nc, ok := g.candidateFor(a, b, c.e); !ok || nc != c {
			g.rescan(a)
			continue
		}
		ca, cb := &clusters[a], &clusters[b]
		// Merge the smaller adjacency into the larger, by live degree (the
		// old map's len(neighbors)); span length would count dead edges
		// and change tie-breaks.
		if cb.deg > ca.deg {
			a, b = b, a
		}
		g.union(a, b, c.sim)
		if unionHook != nil {
			unionHook(g)
		}
	}

	// Materialize the freshly allocated output.

	nAlive, totObjs := 0, 0
	for i := range clusters {
		if clusters[i].alive {
			nAlive++
			totObjs += int(clusters[i].objects)
		}
	}
	out := make([]Cluster, 0, nAlive)
	objArena := make([]model.ObjectID, 0, totObjs)
	for i := range clusters {
		c := &clusters[i]
		if !c.alive {
			continue
		}
		start := len(objArena)
		for ai := c.atomHead; ; ai = atomNext[ai] {
			objArena = append(objArena, atoms[ai].objects...)
			if ai == c.atomTail {
				break
			}
		}
		objs := objArena[start:len(objArena):len(objArena)]
		slices.Sort(objs)
		cl := Cluster{Objects: objs, Bytes: c.bytes, Cohesion: c.cohesion}
		cw := bitsArena[i*words : (i+1)*words]
		for wi, word := range cw {
			for word != 0 {
				ri := wi*64 + bits.TrailingZeros64(word)
				cl.Prob += w.Requests[ri].Prob
				word &= word - 1
			}
		}
		out = append(out, cl)
	}
	return out
}

// Summary describes a clustering result for reports.
type Summary struct {
	NumClusters   int
	NumSingletons int
	MaxObjects    int
	MeanObjects   float64
	TotalBytes    int64
	Unreferenced  int
}

// Summarize computes result statistics.
func (r *Result) Summarize() Summary {
	s := Summary{NumClusters: len(r.Clusters), Unreferenced: len(r.Unreferenced)}
	total := 0
	for _, c := range r.Clusters {
		n := len(c.Objects)
		total += n
		if n == 1 {
			s.NumSingletons++
		}
		if n > s.MaxObjects {
			s.MaxObjects = n
		}
		s.TotalBytes += c.Bytes
	}
	if len(r.Clusters) > 0 {
		s.MeanObjects = float64(total) / float64(len(r.Clusters))
	}
	return s
}

// Validate checks that the result partitions the referenced objects of w:
// every object appears exactly once across clusters + unreferenced.
func (r *Result) Validate(w *model.Workload) error {
	seen := make([]bool, w.NumObjects())
	mark := func(id model.ObjectID) error {
		if int(id) < 0 || int(id) >= len(seen) {
			return fmt.Errorf("cluster: unknown object %d in result", id)
		}
		if seen[id] {
			return fmt.Errorf("cluster: object %d appears twice in result", id)
		}
		seen[id] = true
		return nil
	}
	for _, c := range r.Clusters {
		if len(c.Objects) == 0 {
			return fmt.Errorf("cluster: empty cluster in result")
		}
		var bytes int64
		for _, id := range c.Objects {
			if err := mark(id); err != nil {
				return err
			}
			bytes += w.Objects[id].Size
		}
		if bytes != c.Bytes {
			return fmt.Errorf("cluster: byte count mismatch (%d vs %d)", bytes, c.Bytes)
		}
	}
	for _, id := range r.Unreferenced {
		if err := mark(id); err != nil {
			return err
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("cluster: object %d missing from result", i)
		}
	}
	return nil
}
