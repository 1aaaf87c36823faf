package serve

import (
	"context"

	"physdep/internal/cli"
	"physdep/internal/obs"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// topoStore shares one built topology — and therefore one frozen CSR
// graph.Snapshot — per distinct topology spec, across every concurrent
// request that names it. Building is single-flight on the daemon's
// flight table (the first request builds and freezes; concurrent
// requests for the same spec wait for that one build, each within its
// own deadline), and completed topologies live in a bounded LRU so a
// scan over thousands of distinct specs cannot grow memory without
// bound. A build in progress is not in the LRU, so eviction never
// touches one.
//
// Entries are never mutated in place: handlers only read the stored
// topology (evaluation, stats, and what-if trials all work on reads or
// on clones), which is what makes sharing the frozen snapshot safe. The
// only "mutation" the daemon offers is invalidate(): the stored topology
// and any build in progress are dropped and the next request rebuilds a
// fresh topology and a fresh snapshot. Requests already holding the old
// pointer keep reading the old immutable snapshot — exactly the
// graph.Freeze() contract.
type topoStore struct {
	entries *lruCache[*topology.Topology]
	flights *flightTable[*topology.Topology]
	// build is cli.BuildTopology in production; tests swap in failing or
	// blocking builders to drive the failure-path and eviction races.
	build func(cli.TopoParams) (*topology.Topology, error)
}

func newTopoStore(entries int) *topoStore {
	lru := newLRU[*topology.Topology](entries)
	return &topoStore{
		entries: lru,
		flights: newFlightTable(func(k cacheKey, t *topology.Topology) { lru.add(k, t) }),
		build:   cli.BuildTopology,
	}
}

// specKey returns the canonical identity of a topology spec. Seed and
// rate participate: two Jellyfish specs differing only in seed are
// different fabrics.
func specKey(spec cli.TopoParams) (cacheKey, error) {
	return canonicalKey("topo", spec)
}

// load returns the shared topology for spec, building and freezing it
// on first use. A request waiting for another request's build gives up
// when its own ctx is done, with an error matching physerr.ErrCanceled,
// and the build carries on for the others. A failed build is never
// stored: its leader gets the error and the waiting requests retry, so a
// transient failure cannot wedge the key.
func (st *topoStore) load(ctx context.Context, spec cli.TopoParams) (*topology.Topology, error) {
	k, err := specKey(spec)
	if err != nil {
		return nil, err
	}
	for {
		if t, ok := st.entries.get(k); ok {
			return t, nil
		}
		f, leader := st.flights.begin(k)
		if leader {
			return st.lead(k, f, spec)
		}
		select {
		case <-f.done:
			if f.ok {
				return f.val, nil
			}
			// The leader's build failed: loop, and lead a fresh build or
			// follow one, under this request's own context.
		case <-ctx.Done():
			return nil, physerr.Canceled(ctx.Err())
		}
	}
}

// lead builds and freezes spec as the leader of f. The flight finishes
// on every exit path, panics included, or its followers would wait for a
// build that never ends.
func (st *topoStore) lead(k cacheKey, f *flight[*topology.Topology], spec cli.TopoParams) (topo *topology.Topology, err error) {
	defer func() { st.flights.finish(k, f, topo, topo != nil) }()
	// A build that finished between this request's store miss and its
	// begin was kept before its flight left the table: serve it rather
	// than building twice.
	if t, ok := st.entries.get(k); ok {
		return t, nil
	}
	obs.Inc("serve.store.build")
	t, err := st.build(spec)
	if err != nil {
		return nil, err
	}
	// Freeze eagerly: the shared snapshot is built exactly once per loaded
	// topology, outside any request's timed kernel work.
	t.Freeze()
	return t, nil
}

// invalidate drops the stored topology for spec and any build of it in
// progress, reporting whether there was either. The next load builds a
// fresh topology and snapshot.
func (st *topoStore) invalidate(spec cli.TopoParams) (bool, error) {
	k, err := specKey(spec)
	if err != nil {
		return false, err
	}
	building := st.flights.drop(k)
	stored := st.entries.remove(k)
	if building || stored {
		obs.Inc("serve.store.invalidate")
	}
	return building || stored, nil
}
