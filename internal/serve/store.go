package serve

import (
	"context"

	"physdep/internal/cli"
	"physdep/internal/obs"
	"physdep/internal/topology"
)

// topoStore shares one built topology — and therefore one frozen CSR
// graph.Snapshot — per distinct topology spec, across every concurrent
// request that names it. It is a caller of the daemon's flight cache
// (singleflight.go): the first request for a spec builds and freezes,
// concurrent requests for it wait for that one build, each within its
// own deadline, and completed topologies live in the cache's bounded
// LRU, so a scan over thousands of distinct specs cannot grow memory
// without bound. A build in progress is not in the LRU, so eviction
// never touches one.
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
	flights *flightCache[*topology.Topology]
	// build is cli.BuildTopology in production; tests swap in failing or
	// blocking builders to drive the failure-path and eviction races.
	build func(cli.TopoParams) (*topology.Topology, error)
}

// storeEntries bounds the shared topology store: 32 loaded fabrics, each
// holding one frozen snapshot.
const storeEntries = 32

func newTopoStore(entries int) *topoStore {
	return &topoStore{flights: newFlightCache[*topology.Topology](entries, nil), build: cli.BuildTopology}
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
	t, _, err := st.flights.get(ctx, k, func(context.Context) (*topology.Topology, error) {
		obs.Inc("serve.store.build")
		t, err := st.build(spec)
		if err != nil {
			return nil, err
		}
		// Freeze eagerly: the shared snapshot is built exactly once per
		// loaded topology, outside any request's timed kernel work.
		t.Freeze()
		return t, nil
	})
	return t, err
}

// invalidate drops the stored topology for spec and any build of it in
// progress, reporting whether there was either. The next load builds a
// fresh topology and snapshot.
func (st *topoStore) invalidate(spec cli.TopoParams) (bool, error) {
	k, err := specKey(spec)
	if err != nil {
		return false, err
	}
	dropped := st.flights.drop(k)
	if dropped {
		obs.Inc("serve.store.invalidate")
	}
	return dropped, nil
}
