package trafficsim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// TestKSPConfigValidateKinds: a path count outside [1, MaxKSPK] is an
// out-of-range error, and both ends of the range are accepted.
func TestKSPConfigValidateKinds(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	m := Uniform(len(ft.ToRs()), 1)
	bad := []struct {
		name string
		k    int
	}{
		{"zero K", 0},
		{"negative K", -3},
		{"huge K", MaxKSPK + 1},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := KSPThroughputCtx(context.Background(), ft, m, tc.k)
			if err == nil {
				t.Fatal("invalid k was accepted")
			}
			if !errors.Is(err, physerr.ErrOutOfRange) {
				t.Fatalf("err = %v, want ErrOutOfRange", err)
			}
		})
	}
	for _, k := range []int{1, MaxKSPK} {
		if _, err := KSPThroughputCtx(context.Background(), ft, m, k); err != nil {
			t.Errorf("k=%d rejected: %v", k, err)
		}
	}
}

func TestNewMatrixNegativeN(t *testing.T) {
	m := NewMatrix(-5)
	if m.N != 0 || len(m.D) != 0 {
		t.Errorf("NewMatrix(-5) = %d×%d, want empty", m.N, len(m.D))
	}
}

// TestNothingRoutedIsOutOfRange: a fabric with fewer than two ToRs has
// no uniform demand to route, which is an input error (the daemon's
// /v1/whatif answers 422 for it, not 500), and the message keeps naming
// the cause.
func TestNothingRoutedIsOutOfRange(t *testing.T) {
	one := topology.NewTopology("one-tor")
	one.AddSwitch(topology.Node{Role: topology.RoleToR, Radix: 8, Rate: 100, ServerPorts: 8, Pod: -1})
	m := Uniform(len(one.ToRs()), 100)
	_, ecmpErr := ECMPThroughput(one, m)
	_, kspErr := KSPThroughputCtx(context.Background(), one, m, JellyfishK)
	for name, err := range map[string]error{"ECMP": ecmpErr, "KSP": kspErr} {
		if !errors.Is(err, physerr.ErrOutOfRange) {
			t.Errorf("%s on one ToR: err = %v, want ErrOutOfRange", name, err)
		} else if !strings.Contains(err.Error(), "no load was routed") {
			t.Errorf("%s on one ToR: err = %q lost its cause", name, err)
		}
	}
}
