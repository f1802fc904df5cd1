package cluster

import (
	"fmt"
	"testing"
)

// edgeTableChecker verifies the edge-table invariants between unions,
// reusing its buffers across checks.
type edgeTableChecker struct {
	inU, inV []int32 // per edge: appearances in its u and v endpoints' spans
	seen     []int32 // per cluster: the last cluster whose span named it, plus one
}

// check returns the first edge-table invariant g violates, or nil:
//
//   - every live edge joins two distinct live roots and appears exactly
//     once in each endpoint's span, and in no other live span;
//   - no two live edges join the same pair;
//   - each live cluster's deg counts the live edges in its span, and the
//     arena's live count is their sum;
//   - mark is all -1;
//   - no absorbed cluster is in the heap, and each heap slot is owned by
//     the cluster whose pos names it and is heap-ordered against its
//     parent;
//   - for every live edge (x, y), x < y, whose candidateFor is ok, x is in
//     the heap keyed at or above that candidate.
func (ck *edgeTableChecker) check(g *agg) error {
	ck.inU = growI32(ck.inU, len(g.edges))
	ck.inV = growI32(ck.inV, len(g.edges))
	ck.seen = growI32(ck.seen, len(g.clusters))
	live := 0
	for k := range g.clusters {
		c := &g.clusters[k]
		if !c.alive {
			if c.deg != 0 || c.adjLen != 0 {
				return fmt.Errorf("absorbed cluster %d keeps deg %d, span length %d", k, c.deg, c.adjLen)
			}
			continue
		}
		deg := 0
		for _, e := range g.adj[c.adjOff : c.adjOff+c.adjLen] {
			ed := g.edges[e]
			if ed.u < 0 {
				continue
			}
			deg++
			switch int32(k) {
			case ed.u:
				ck.inU[e]++
			case ed.v:
				ck.inV[e]++
			default:
				return fmt.Errorf("span of cluster %d holds edge %d joining %d and %d", k, e, ed.u, ed.v)
			}
			other := ed.u ^ ed.v ^ int32(k)
			if ck.seen[other] == int32(k)+1 {
				return fmt.Errorf("cluster %d has two live edges to cluster %d", k, other)
			}
			ck.seen[other] = int32(k) + 1
		}
		if deg != int(c.deg) {
			return fmt.Errorf("cluster %d: deg %d, but its span holds %d live edges", k, c.deg, deg)
		}
		live += deg
	}
	if live != g.live {
		return fmt.Errorf("arena live count %d, spans hold %d live entries", g.live, live)
	}
	for e, ed := range g.edges {
		if ed.u < 0 {
			continue
		}
		for _, x := range [2]int32{ed.u, ed.v} {
			if !g.clusters[x].alive || g.parent[x] != x {
				return fmt.Errorf("live edge %d has endpoint %d that is not a live root", e, x)
			}
		}
		if ed.u == ed.v {
			return fmt.Errorf("live edge %d loops on cluster %d", e, ed.u)
		}
		if ck.inU[e] != 1 || ck.inV[e] != 1 {
			return fmt.Errorf("live edge %d (%d–%d) appears %d and %d times in its endpoints' spans", e, ed.u, ed.v, ck.inU[e], ck.inV[e])
		}
		c, ok := g.candidateFor(ed.u, ed.v, int32(e))
		if !ok {
			continue
		}
		x, _ := c.pair()
		if i := g.heap.pos[x]; i < 0 {
			return fmt.Errorf("cluster %d owns mergeable pair %+v but is not in the heap", x, c)
		} else if key := g.heap.keys[i]; candLess(c, key) {
			return fmt.Errorf("cluster %d owns pair %+v above its key %+v", x, c, key)
		}
	}
	for k := range g.clusters {
		if !g.clusters[k].alive && g.heap.pos[k] != -1 {
			return fmt.Errorf("absorbed cluster %d is in heap slot %d", k, g.heap.pos[k])
		}
	}
	for i, key := range g.heap.keys {
		if x, _ := key.pair(); g.heap.pos[x] != int32(i) {
			return fmt.Errorf("heap slot %d holds cluster %d, whose pos is %d", i, x, g.heap.pos[x])
		}
		if p := (i - 1) / 4; i > 0 && candLess(key, g.heap.keys[p]) {
			return fmt.Errorf("heap slot %d key %+v above its parent's %+v", i, key, g.heap.keys[p])
		}
	}
	for k, m := range g.mark {
		if m != -1 {
			return fmt.Errorf("mark[%d] = %d after union, want -1", k, m)
		}
	}
	return nil
}

// TestEdgeTableInvariants checks the edge table after every union across
// the equivalence workloads, all three linkages, uncapped and capped. The
// race build skips the "dense" workload, whose ~770 unions per config each
// scan its ~28,000 edges.
func TestEdgeTableInvariants(t *testing.T) {
	var (
		ck     edgeTableChecker
		unions int
		err    error
	)
	unionHook = func(g *agg) {
		unions++
		if err == nil {
			if err = ck.check(g); err != nil {
				err = fmt.Errorf("after union %d: %w", unions, err)
			}
		}
	}
	defer func() { unionHook = nil }()
	total := 0
	for wname, w := range equivalenceWorkloads(t) {
		if raceEnabled && wname == "dense" {
			continue
		}
		for _, l := range []Linkage{Average, Single, Complete} {
			for _, maxObjects := range []int{0, 16} {
				unions, err = 0, nil
				if _, runErr := runWorkers(w, Config{Linkage: l, MaxObjects: maxObjects}, 1); runErr != nil {
					t.Fatal(runErr)
				}
				if err != nil {
					t.Errorf("%s/%v/max%d: %v", wname, l, maxObjects, err)
				}
				total += unions
			}
		}
	}
	if total == 0 {
		t.Fatal("no unions to check")
	}
	t.Logf("checked %d unions", total)
}
