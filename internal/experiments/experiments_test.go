package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func fmtSscan(s string, out *float64) (int, error) { return fmt.Sscan(s, out) }

// TestAllExperimentsRun executes every experiment end to end and checks
// the registry is complete and consistent. This is the repo's heaviest
// integration test: every subsystem is exercised through here.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipping in -short mode")
	}
	all := registry()
	order := Order()
	if len(all) != len(order) {
		t.Fatalf("registry has %d entries, order lists %d", len(all), len(order))
	}
	for _, id := range order {
		id := id
		run, ok := all[id]
		if !ok {
			t.Fatalf("order lists %s but registry lacks it", id)
		}
		t.Run(id, func(t *testing.T) {
			res, err := run(context.Background())
			if err != nil {
				t.Fatalf("%s failed: %v", id, err)
			}
			if res.ID != id {
				t.Errorf("result ID = %q, want %q", res.ID, id)
			}
			if res.Title == "" || res.Paper == "" {
				t.Error("missing title or paper anchor")
			}
			if len(res.Lines) < 2 {
				t.Errorf("only %d lines of output", len(res.Lines))
			}
			if !strings.Contains(res.Render(), res.Title) {
				t.Error("render drops the title")
			}
			t.Log("\n" + res.Render())
		})
	}
}

// Shape assertions: the qualitative claims each experiment must
// reproduce, extracted so regressions fail loudly rather than just
// changing numbers in a table.

func TestE1ShapeExpanderFewerSwitchesLowerBundleability(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := E1Deployability(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, l := range res.Lines[1:] {
		f := strings.Fields(l)
		if len(f) > 0 {
			rows[f[0]] = f
		}
	}
	ft, jf := rows["fattree-k16"], rows["jellyfish-n128-r8"]
	if ft == nil || jf == nil {
		t.Fatalf("missing rows: %v", res.Lines)
	}
	// Columns: topology switches servers cables length optical% bundle% ...
	if !(lessNum(t, jf[1], ft[1])) {
		t.Errorf("jellyfish switches %s not < fat-tree %s", jf[1], ft[1])
	}
	if !(lessNum(t, jf[6], ft[6])) {
		t.Errorf("jellyfish bundle%% %s not < fat-tree %s", jf[6], ft[6])
	}
}

func lessNum(t *testing.T, a, b string) bool {
	t.Helper()
	var x, y float64
	if _, err := fmtSscan(a, &x); err != nil {
		t.Fatalf("parse %q: %v", a, err)
	}
	if _, err := fmtSscan(b, &y); err != nil {
		t.Fatalf("parse %q: %v", b, err)
	}
	return x < y
}

func TestE3ShapePanelsBeatExpanders(t *testing.T) {
	res, err := E3ExpansionComplexity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// For every increment, the clos+panels row must show zero live
	// rewires while the expanders show added×d/2.
	for _, l := range res.Lines[1:] {
		f := strings.Fields(l)
		if len(f) < 3 {
			continue
		}
		var rewired int
		if _, err := fmt.Sscan(f[2], &rewired); err != nil {
			continue
		}
		if strings.HasPrefix(f[0], "clos+panels") && rewired != 0 {
			t.Errorf("%s rewired %d live links, want 0", f[0], rewired)
		}
		if strings.HasPrefix(f[0], "xpander") && rewired == 0 {
			t.Errorf("%s rewired nothing — d/2 law broken", f[0])
		}
	}
}

func TestE19ShapeExpanderRetainsMore(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := E19FailureDegradation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Last row (20% failures): jellyfish retained% > fattree retained%.
	last := res.Lines[len(res.Lines)-1]
	f := strings.Fields(strings.ReplaceAll(last, "|", " "))
	// fields: 20% fattree_a retained% jelly_a retained%
	if len(f) < 5 {
		t.Fatalf("unexpected row %q", last)
	}
	var ftRet, jfRet float64
	if _, err := fmt.Sscan(strings.TrimSuffix(f[2], "%"), &ftRet); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(strings.TrimSuffix(f[4], "%"), &jfRet); err != nil {
		t.Fatal(err)
	}
	if jfRet <= ftRet {
		t.Errorf("at 20%% failures jellyfish retains %.0f%%, fat-tree %.0f%% — expander should degrade more gracefully", jfRet, ftRet)
	}
}

func TestE16ShapeEngineeringWins(t *testing.T) {
	res, err := E16TopologyEngineering(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Lines[1:] {
		f := strings.Fields(l)
		if len(f) < 3 || !strings.HasPrefix(f[0], "skew") {
			continue
		}
		var ratio float64
		if _, err := fmt.Sscan(strings.TrimSuffix(f[2], "x"), &ratio); err != nil {
			t.Fatal(err)
		}
		if ratio <= 1 {
			t.Errorf("%s: engineered/uniform = %v, want > 1", f[0], ratio)
		}
	}
}
