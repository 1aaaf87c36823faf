package cli

import (
	"context"
	"errors"
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"physdep/internal/interchange"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

func TestBuildEveryFamily(t *testing.T) {
	// The "file" family needs a document on disk; emit one from a fabric
	// the generator path can also build, so the case exercises the real
	// loader end to end.
	seedTopo, err := BuildTopology(TopoParams{Name: "jellyfish", N: 16, Radix: 8, Net: 4, Rate: 100, Seed: 7})
	if err != nil {
		t.Fatalf("building document source: %v", err)
	}
	docPath := filepath.Join(t.TempDir(), "fabric.json")
	if err := interchange.EmitFile(docPath, interchange.FromTopology(seedTopo)); err != nil {
		t.Fatalf("emitting document: %v", err)
	}

	cases := map[string]TopoParams{
		"fattree":       {Name: "fattree", K: 4, Rate: 100},
		"leafspine":     {Name: "leafspine", N: 8, Spines: 4, Net: 4, Radix: 16, Rate: 100},
		"jellyfish":     {Name: "jellyfish", N: 20, Radix: 12, Net: 6, Rate: 100, Seed: 1},
		"xpander":       {Name: "xpander", D: 4, Lift: 3, Radix: 12, Rate: 100, Seed: 1},
		"flatbutterfly": {Name: "flatbutterfly", N: 4, K: 2, Radix: 8, Rate: 100},
		"fatclique":     {Name: "fatclique", D: 3, Lift: 3, K: 3, Radix: 8, Rate: 100},
		"slimfly":       {Name: "slimfly", Q: 5, Radix: 9, Rate: 100},
		"vl2":           {Name: "vl2", D: 4, Lift: 4, Radix: 16, Rate: 10},
		"flatrandom":    {Name: "flatrandom", N: 24, Radix: 12, Net: 6, Rate: 100, Seed: 1},
		"file":          {Name: "file", File: docPath},
	}
	if len(cases) != len(Families()) {
		t.Fatalf("test covers %d families, CLI exposes %d", len(cases), len(Families()))
	}
	for name, p := range cases {
		tp, err := BuildTopology(p)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if tp.NumSwitches() == 0 {
			t.Errorf("%s: empty topology", name)
		}
		if err := tp.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBuildRejectsUnknownAndBadParams(t *testing.T) {
	if _, err := BuildTopology(TopoParams{Name: "moebius"}); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := BuildTopology(TopoParams{Name: "leafspine", N: 8, Net: 4, Radix: 16}); err == nil {
		t.Error("leafspine without spines accepted")
	}
	if _, err := BuildTopology(TopoParams{Name: "fattree", K: 3}); err == nil {
		t.Error("odd fat-tree K accepted")
	}
	if _, err := BuildTopology(TopoParams{Name: "file"}); err == nil {
		t.Error("file family without a path accepted")
	}
	if _, err := BuildTopology(TopoParams{Name: "file", File: filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Error("file family with a missing document accepted")
	}
}

// TestLeafSpineDivisibility pins the truncation fix: when Spines does not
// divide N·Net, BuildTopology must reject the config (it used to build a
// fabric that silently stranded the remainder uplinks) — and divisible
// configs still build with every spine carrying exactly its share.
func TestLeafSpineDivisibility(t *testing.T) {
	cases := []struct {
		name string
		p    TopoParams
		ok   bool
	}{
		{"even split", TopoParams{Name: "leafspine", N: 8, Spines: 4, Net: 4, Radix: 16, Rate: 100}, true},
		{"triple split", TopoParams{Name: "leafspine", N: 6, Spines: 3, Net: 3, Radix: 16, Rate: 100}, true},
		{"remainder 2", TopoParams{Name: "leafspine", N: 7, Spines: 5, Net: 2, Radix: 16, Rate: 100}, false},
		{"remainder 1", TopoParams{Name: "leafspine", N: 3, Spines: 2, Net: 3, Radix: 16, Rate: 100}, false},
		{"prime spines", TopoParams{Name: "leafspine", N: 8, Spines: 3, Net: 4, Radix: 16, Rate: 100}, false},
	}
	for _, c := range cases {
		tp, err := BuildTopology(c.p)
		if c.ok {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", c.name, err)
				continue
			}
			// Every spine must carry exactly N·Net/Spines uplinks — the
			// whole point of the divisibility rule.
			want := c.p.N * c.p.Net / c.p.Spines
			for _, id := range tp.SwitchesByRole(topology.RoleSpine) {
				if d := tp.Degree(id); d != want {
					t.Errorf("%s: spine %d degree %d, want %d", c.name, id, d, want)
				}
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: non-divisible config accepted", c.name)
		} else if !errors.Is(err, physerr.ErrOutOfRange) {
			t.Errorf("%s: error kind = %v, want ErrOutOfRange", c.name, err)
		}
	}
}

// TestRegisterTopoFlagsCoversParams: every TopoParams field has a flag
// named after its json tag ("topo" for Name, "topo-file" for File),
// setting the flag sets that field, and no other flag is declared.
func TestRegisterTopoFlagsCoversParams(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := RegisterTopoFlags(fs)
	typ := reflect.TypeOf(*p)
	declared := 0
	fs.VisitAll(func(*flag.Flag) { declared++ })
	if declared != typ.NumField() {
		t.Errorf("%d flags declared, want one per TopoParams field (%d)", declared, typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		name, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		switch name {
		case "name":
			name = "topo"
		case "file":
			name = "topo-file"
		}
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("TopoParams.%s has no -%s flag", field.Name, name)
			continue
		}
		if f.Usage == "" {
			t.Errorf("-%s has no help text", name)
		}
		val := "3"
		if name == "topo" {
			val = "slimfly"
		}
		before := reflect.ValueOf(*p).Field(i).Interface()
		if err := fs.Set(name, val); err != nil {
			t.Fatalf("-%s=%s: %v", name, val, err)
		}
		if after := reflect.ValueOf(*p).Field(i).Interface(); reflect.DeepEqual(before, after) {
			t.Errorf("-%s=%s left TopoParams.%s at %v", name, val, field.Name, before)
		}
	}
}

// TestTopoFileWinsWhateverOrder: -topo-file selects the "file" family
// whether it comes before or after -topo, and without it -topo and its
// default behave as plain flags.
func TestTopoFileWinsWhateverOrder(t *testing.T) {
	for _, c := range []struct {
		args       []string
		name, file string
	}{
		{nil, "fattree", ""},
		{[]string{"-topo", "jellyfish"}, "jellyfish", ""},
		{[]string{"-topo-file", "fab.json"}, "file", "fab.json"},
		{[]string{"-topo-file", "fab.json", "-topo", "jellyfish"}, "file", "fab.json"},
		{[]string{"-topo", "jellyfish", "-topo-file", "fab.json"}, "file", "fab.json"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		p := RegisterTopoFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if p.Name != c.name || p.File != c.file {
			t.Errorf("%v: name %q file %q, want %q %q", c.args, p.Name, p.File, c.name, c.file)
		}
	}
}

// TestResolveHall pins the one hall rule, per dimension: an explicit
// count wins, then the document's hall, then DefaultRows × DefaultSlots.
func TestResolveHall(t *testing.T) {
	doc := &interchange.Hall{Rows: 4, Slots: 12}
	for _, c := range []struct {
		name        string
		rows, slots int
		doc         *interchange.Hall
		wantR       int
		wantS       int
	}{
		{"default, no document", 0, 0, nil, 6, 16},
		{"document", 0, 0, doc, 4, 12},
		{"explicit, no document", 5, 20, nil, 5, 20},
		{"explicit beats document", 5, 20, doc, 5, 20},
		{"explicit rows, document slots", 5, 0, doc, 5, 12},
		{"document rows, explicit slots", 0, 20, doc, 4, 20},
		{"explicit rows, default slots", 5, 0, nil, 5, 16},
		{"default rows, explicit slots", 0, 20, nil, 6, 20},
		{"explicit equal to the default beats document", 6, 16, doc, 6, 16},
	} {
		if r, s := ResolveHall(c.rows, c.slots, c.doc); r != c.wantR || s != c.wantS {
			t.Errorf("%s: ResolveHall(%d, %d, %v) = %d×%d, want %d×%d",
				c.name, c.rows, c.slots, c.doc, r, s, c.wantR, c.wantS)
		}
	}
}

// TestLoadTopologyReturnsDocumentHall: the resolver hands back the hall a
// document pins, and nil for a hall-less document and a generated family.
func TestLoadTopologyReturnsDocumentHall(t *testing.T) {
	p := TopoParams{Name: "jellyfish", N: 16, Radix: 8, Net: 4, Rate: 100, Seed: 7}
	gen, hall, err := LoadTopology(context.Background(), p)
	if err != nil || hall != nil {
		t.Fatalf("generated: hall %v, err %v; want nil, nil", hall, err)
	}
	dir := t.TempDir()
	for _, want := range []*interchange.Hall{nil, {Rows: 4, Slots: 12}} {
		doc := interchange.FromTopology(gen)
		doc.Hall = want
		path := filepath.Join(dir, "fabric.json")
		if err := interchange.EmitFile(path, doc); err != nil {
			t.Fatal(err)
		}
		tp, hall, err := LoadTopology(context.Background(), TopoParams{Name: "file", File: path})
		if err != nil {
			t.Fatal(err)
		}
		if tp.NumSwitches() != gen.NumSwitches() || !reflect.DeepEqual(hall, want) {
			t.Errorf("document with hall %v: %d switches, hall %v", want, tp.NumSwitches(), hall)
		}
	}
}
