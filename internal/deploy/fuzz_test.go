package deploy

import (
	"context"
	"reflect"
	"testing"

	"physdep/internal/costmodel"
	"physdep/internal/floorplan"
	"physdep/internal/units"
)

// fuzzMinutes are the task durations FuzzExecute draws from: zero, ties
// with a revalidate (0.5) and a rework (25), and a few in between, so
// equal priorities are common.
var fuzzMinutes = [...]units.Minutes{0, 0.5, 1, 2, 3, 5, 25, 40}

// fuzzPlan decodes a work plan from data, after a 4-byte header of crew
// size, rack worker cap, yield and seed. Each task takes 3 bytes plus one
// per dep: kind (the high bit marks a revalidate), minutes, and location
// in a 3×5 hall with a dep count of 0–3 in its top two bits, then each
// dep as a byte modulo the task's ID, so deps only name earlier tasks.
// Plans stop at 256 tasks.
func fuzzPlan(data []byte) (*Plan, ExecOptions, bool) {
	if len(data) < 4 {
		return nil, ExecOptions{}, false
	}
	opts := ExecOptions{
		Techs:             1 + int(data[0])%16,
		MaxWorkersPerRack: int(data[1]) % 4,
		YieldOverride:     float64(data[2]) / 255, // 0: the model's yield
		Seed:              uint64(data[3]),
	}
	p := &Plan{}
	for rest := data[4:]; len(rest) >= 3 && len(p.Tasks) < 256; {
		kind, mins, loc := rest[0], rest[1], rest[2]
		nd := min(int(loc>>6), len(rest)-3)
		t := Task{
			Kind:       TaskKind(kind&0x7f) % TaskKind(len(taskKindNames)),
			Minutes:    fuzzMinutes[mins%byte(len(fuzzMinutes))],
			Loc:        floorplan.RackLoc{Row: int(loc % 3), Slot: int(loc/3) % 5},
			CableIdx:   -1,
			Revalidate: kind&0x80 != 0,
		}
		id := len(p.Tasks)
		for _, d := range rest[3 : 3+nd] {
			if id > 0 {
				t.Deps = append(t.Deps, int(d)%id)
			}
		}
		p.addTask(t)
		rest = rest[3+nd:]
	}
	return p, opts, true
}

// FuzzExecute schedules random work plans (deps only on earlier IDs,
// repeated deps, every task kind, validations with children, revalidates
// in the plan) with crews of 1–16, rack worker caps of 0–3 and yields
// low enough for many reworks, and requires the same Schedule as the
// reference scheduler. testdata/fuzz/FuzzExecute holds validations with
// children, one of them failing with a child whose priority ties with
// its rework's, and back-to-back reworks.
func FuzzExecute(f *testing.F) {
	f.Add([]byte{
		3, 1, 40, 7,
		0, 3, 0x00, // rack install
		4, 1, 0x40, 0, // validate
		3, 2, 0x41, 1, // connect after the validate
		4, 1, 0x81, 1, 2, // validate with two deps
	})
	m := costmodel.Default()
	fp, err := floorplan.NewFloorplan(floorplan.DefaultHall(3, 5))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, opts, ok := fuzzPlan(data)
		if !ok {
			return
		}
		got, err := ExecuteCtx(context.Background(), p, m, fp, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refExecuteCtx(context.Background(), p, m, fp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d tasks, %+v: schedule %+v, reference %+v", len(p.Tasks), opts, got, want)
		}
	})
}
