package core

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/floorplan"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

func TestEvaluateInputValidation(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	hall := floorplan.DefaultHall(3, 10)
	bad := []struct {
		name string
		in   Input
	}{
		{"nil topology", Input{Hall: hall}},
		{"negative steps", Input{Topo: ft, Hall: hall, PlacementSteps: -1}},
		{"negative restarts", Input{Topo: ft, Hall: hall, PlacementRestarts: -2}},
		{"negative techs", Input{Topo: ft, Hall: hall, Techs: -8}},
		{"techs over cap", Input{Topo: ft, Hall: hall, Techs: MaxTechs + 1}},
		{"steps over cap", Input{Topo: ft, Hall: hall, PlacementSteps: MaxPlacementSteps + 1}},
		{"restarts over cap", Input{Topo: ft, Hall: hall, PlacementRestarts: MaxPlacementRestarts + 1}},
		{"bad hall", Input{Topo: ft, Hall: floorplan.DefaultHall(0, 10)}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := EvaluateCtx(context.Background(), tc.in)
			if err == nil {
				t.Fatal("invalid input was accepted")
			}
			if !errors.Is(err, physerr.ErrOutOfRange) {
				t.Fatalf("err = %v, want ErrOutOfRange", err)
			}
		})
	}
}

// TestInputValidateAcceptsCaps: every work knob is valid at its cap, so
// physdep -techs/-anneal and the daemon share one boundary.
func TestInputValidateAcceptsCaps(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Topo: ft, Techs: MaxTechs, PlacementSteps: MaxPlacementSteps, PlacementRestarts: MaxPlacementRestarts}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}
