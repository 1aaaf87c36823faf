package trafficsim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"physdep/internal/physerr"
	"physdep/internal/topology"
)

func TestKSPConfigValidateKinds(t *testing.T) {
	bad := []struct {
		name string
		cfg  KSPConfig
	}{
		{"zero K", KSPConfig{K: 0, Chunks: 8}},
		{"huge K", KSPConfig{K: MaxKSPK + 1}},
		{"negative Slack", KSPConfig{K: 8, Slack: -1}},
		{"huge Slack", KSPConfig{K: 8, Slack: MaxKSPSlack + 1}},
		{"negative Chunks", KSPConfig{K: 8, Chunks: -3}},
		{"huge Chunks", KSPConfig{K: 8, Chunks: MaxKSPChunks + 1}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("invalid config was accepted")
			}
			if !errors.Is(err, physerr.ErrOutOfRange) {
				t.Fatalf("err = %v, want ErrOutOfRange", err)
			}
		})
	}
	// Chunks 0 means "default" and must stay valid — the golden corpus
	// depends on it.
	if err := (KSPConfig{K: 8, Slack: 1}).Validate(); err != nil {
		t.Errorf("Chunks=0 config rejected: %v", err)
	}
	if err := DefaultKSP().Validate(); err != nil {
		t.Errorf("DefaultKSP rejected: %v", err)
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
	_, kspErr := KSPThroughputCtx(context.Background(), one, m, DefaultKSP())
	for name, err := range map[string]error{"ECMP": ecmpErr, "KSP": kspErr} {
		if !errors.Is(err, physerr.ErrOutOfRange) {
			t.Errorf("%s on one ToR: err = %v, want ErrOutOfRange", name, err)
		} else if !strings.Contains(err.Error(), "no load was routed") {
			t.Errorf("%s on one ToR: err = %q lost its cause", name, err)
		}
	}
}
