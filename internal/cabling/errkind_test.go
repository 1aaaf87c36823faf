package cabling

import (
	"errors"
	"testing"

	"physdep/internal/floorplan"
	"physdep/internal/physerr"
)

// TestPlanErrorKinds pins the classification contract at the cabling
// boundary: a location outside the hall is out-of-range; a catalog miss
// is infeasible-media (reachable through either sentinel).
func TestPlanErrorKinds(t *testing.T) {
	fp, err := floorplan.NewFloorplan(floorplan.DefaultHall(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	cat := DefaultCatalog()

	cases := []struct {
		name    string
		demands []Demand
		kind    error
	}{
		{"out-of-hall demand", []Demand{{ID: 2, From: floorplan.RackLoc{Row: -1, Slot: 0},
			To: floorplan.RackLoc{Row: 0, Slot: 0}, Rate: 100}}, physerr.ErrOutOfRange},
		{"unknown rate", []Demand{{ID: 3, From: floorplan.RackLoc{Row: 0, Slot: 0},
			To: floorplan.RackLoc{Row: 0, Slot: 1}, Rate: 123}}, physerr.ErrInfeasibleMedia},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := PlanCables(fp, cat, tc.demands, Options{})
			if err == nil {
				t.Fatal("invalid input was accepted")
			}
			if !errors.Is(err, tc.kind) {
				t.Fatalf("err = %v, want kind %v", err, tc.kind)
			}
		})
	}
}

// TestErrNoMediaWrapsPhyserr keeps both classification routes working:
// existing callers match cabling.ErrNoMedia, new callers the shared kind.
func TestErrNoMediaWrapsPhyserr(t *testing.T) {
	_, err := DefaultCatalog().Select(999, 1, 0)
	if !errors.Is(err, ErrNoMedia) {
		t.Errorf("err = %v, want ErrNoMedia", err)
	}
	if !errors.Is(err, physerr.ErrInfeasibleMedia) {
		t.Errorf("err = %v, want physerr.ErrInfeasibleMedia", err)
	}
}
