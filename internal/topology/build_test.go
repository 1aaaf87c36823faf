package topology

import (
	"strconv"
	"testing"
)

// TestNewFabricSizesExactly checks that the sizing pass counts what the
// build pass writes — every switch and every label byte, across digit
// boundaries of both the tier index and the fixed indices — so the node
// table and the label string are each made once and never regrown.
func TestNewFabricSizesExactly(t *testing.T) {
	f := newFabric("sizes", 0, func(f *fabric) {
		f.switches(0, 3, Node{}, "none-")
		f.switches(101, 2, Node{Role: RoleCore}, "core-")
		for _, p := range []int{0, 9, 10, 99, 100, 1000} {
			f.switches(11, 1, Node{Pod: p}, "agg-", p, p+1)
		}
	})
	if f.labels.Len() != f.bytes {
		t.Errorf("wrote %d label bytes, sized %d", f.labels.Len(), f.bytes)
	}
	if len(f.Nodes) != f.nodes || cap(f.Nodes) != f.nodes || f.N != f.nodes {
		t.Errorf("%d nodes (cap %d, graph %d), sized %d", len(f.Nodes), cap(f.Nodes), f.N, f.nodes)
	}
	for i, want := range map[int]string{0: "core-0", 100: "core-100", 101: "agg-0-1-0",
		112: "agg-9-10-0", 111: "agg-0-1-10", 166: "agg-1000-1001-10"} {
		if got := f.Nodes[i].Label; got != want {
			t.Errorf("node %d labelled %q, want %q", i, got, want)
		}
	}
	for i, n := range f.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
	}
	for n := 0; n <= 1200; n++ {
		want := 0
		for i := 0; i < n; i++ {
			want += len(strconv.Itoa(i))
		}
		if got := digitsBelow(n); got != want {
			t.Fatalf("digitsBelow(%d) = %d, want %d", n, got, want)
		}
	}
}
