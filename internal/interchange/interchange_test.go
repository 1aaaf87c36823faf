package interchange_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"physdep/internal/cli"
	"physdep/internal/core"
	"physdep/internal/floorplan"
	"physdep/internal/interchange"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// familyParams is one buildable config per generator family (the "file"
// pseudo-family is what this package implements, so it is exercised by
// every case rather than listed). Kept in sync with cli.Families() by
// TestRoundTripCoversEveryFamily.
var familyParams = map[string]cli.TopoParams{
	"fattree":       {Name: "fattree", K: 4, Rate: 100},
	"leafspine":     {Name: "leafspine", N: 8, Spines: 4, Net: 4, Radix: 16, Rate: 100},
	"jellyfish":     {Name: "jellyfish", N: 20, Radix: 12, Net: 6, Rate: 100, Seed: 1},
	"xpander":       {Name: "xpander", D: 4, Lift: 3, Radix: 12, Rate: 100, Seed: 1},
	"flatbutterfly": {Name: "flatbutterfly", N: 4, K: 2, Radix: 8, Rate: 100},
	"fatclique":     {Name: "fatclique", D: 3, Lift: 3, K: 3, Radix: 8, Rate: 100},
	"slimfly":       {Name: "slimfly", Q: 5, Radix: 9, Rate: 100},
	"vl2":           {Name: "vl2", D: 4, Lift: 4, Radix: 16, Rate: 100},
	"flatrandom":    {Name: "flatrandom", N: 24, Radix: 12, Net: 6, Rate: 100, Seed: 1},
}

func TestRoundTripCoversEveryFamily(t *testing.T) {
	for _, f := range cli.Families() {
		if f == "file" {
			continue
		}
		if _, ok := familyParams[f]; !ok {
			t.Errorf("family %q has no round-trip case", f)
		}
	}
	if want := len(cli.Families()) - 1; len(familyParams) != want {
		t.Errorf("round-trip suite has %d cases, cli exposes %d generator families", len(familyParams), want)
	}
}

// TestRoundTripByteIdentical is the format's core promise: for every
// generator family, emit→load→evaluate produces a report byte-identical
// to evaluating the generator-built original. This is stronger than
// "equal structures" — it pins the CSR row order, and with it every
// order-sensitive float accumulation, through the document.
func TestRoundTripByteIdentical(t *testing.T) {
	hall := floorplan.DefaultHall(6, 16)
	for name, p := range familyParams {
		t.Run(name, func(t *testing.T) {
			orig, err := cli.BuildTopology(p)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			doc := interchange.FromTopology(orig)
			encoded, err := doc.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			loaded, _, err := interchange.LoadCtx(context.Background(), encoded)
			if err != nil {
				t.Fatalf("load: %v", err)
			}

			// Structure: same name, switches, live edges.
			if loaded.Name != orig.Name || loaded.NumSwitches() != orig.NumSwitches() ||
				loaded.NumEdges() != orig.NumEdges() {
				t.Fatalf("shape drift: %s/%d/%d vs %s/%d/%d",
					loaded.Name, loaded.NumSwitches(), loaded.NumEdges(),
					orig.Name, orig.NumSwitches(), orig.NumEdges())
			}

			// Evaluation: full pipeline reports must serialize to the same
			// bytes.
			origReport, err := core.EvaluateCtx(context.Background(), core.DefaultInput(orig, hall))
			if err != nil {
				t.Fatalf("evaluate original: %v", err)
			}
			loadedReport, err := core.EvaluateCtx(context.Background(), core.DefaultInput(loaded, hall))
			if err != nil {
				t.Fatalf("evaluate loaded: %v", err)
			}
			a, err := json.Marshal(origReport)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(loadedReport)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("report bytes diverge after round trip:\noriginal: %s\nloaded:   %s", a, b)
			}

			// Idempotence: re-emitting the loaded topology reproduces the
			// document bytes exactly.
			re, err := interchange.FromTopology(loaded).Encode()
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(encoded, re) {
				t.Fatal("document bytes diverge after emit→load→emit")
			}
		})
	}
}

// TestRoundTripFile covers the disk path: EmitFile is atomic and
// LoadFile reproduces the in-memory round trip.
func TestRoundTripFile(t *testing.T) {
	orig, err := cli.BuildTopology(familyParams["jellyfish"])
	if err != nil {
		t.Fatal(err)
	}
	doc := interchange.FromTopology(orig)
	doc.Hall = &interchange.Hall{Rows: 6, Slots: 16}
	doc.Generator = &interchange.Provenance{Tool: "test", Family: "jellyfish"}
	path := filepath.Join(t.TempDir(), "fabric.json")
	if err := interchange.EmitFile(path, doc); err != nil {
		t.Fatalf("emit: %v", err)
	}
	loaded, d2, err := interchange.LoadFileCtx(context.Background(), path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.NumSwitches() != orig.NumSwitches() || loaded.NumEdges() != orig.NumEdges() {
		t.Fatal("shape drift through the file path")
	}
	if d2.Hall == nil || d2.Hall.Rows != 6 || d2.Hall.Slots != 16 {
		t.Fatalf("hall geometry lost: %+v", d2.Hall)
	}
	if d2.Generator == nil || d2.Generator.Family != "jellyfish" {
		t.Fatalf("provenance lost: %+v", d2.Generator)
	}
	// No temp debris from the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("emit left %d files in the directory, want 1", len(entries))
	}
}

// validDocJSON returns a small valid document as a mutable map for the
// rejection table to corrupt one field at a time.
func validDocJSON(t *testing.T) map[string]any {
	t.Helper()
	orig, err := cli.BuildTopology(cli.TopoParams{Name: "leafspine", N: 4, Spines: 2, Net: 2, Radix: 8, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := interchange.FromTopology(orig).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLoaderRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m map[string]any)
		errHas string // substring the error message must carry
	}{
		{"wrong format", func(m map[string]any) { m["format"] = "physdep-floorplan" }, "version"},
		{"future version", func(m map[string]any) { m["version"] = interchange.Version + 1 }, "version"},
		{"no name", func(m map[string]any) { m["name"] = "" }, "name"},
		{"unknown field", func(m map[string]any) { m["colour"] = "mauve" }, "unknown field"},
		{"no nodes", func(m map[string]any) { m["nodes"] = []any{} }, "0 switches"},
		{"duplicate node id", func(m map[string]any) {
			nodes := m["nodes"].([]any)
			nodes[1].(map[string]any)["id"] = 0 // two nodes claim id 0
		}, "ids must be"},
		{"unknown role", func(m map[string]any) {
			m["nodes"].([]any)[0].(map[string]any)["role"] = "superspine"
		}, "unknown role"},
		{"negative radix", func(m map[string]any) {
			m["nodes"].([]any)[0].(map[string]any)["radix"] = -1
		}, "negative"},
		{"negative pod", func(m map[string]any) {
			m["nodes"].([]any)[0].(map[string]any)["pod"] = -2
		}, "pod"},
		{"edge endpoint out of range", func(m map[string]any) {
			m["edges"].([]any)[0].(map[string]any)["b"] = 99
		}, "out of range"},
		{"self edge", func(m map[string]any) {
			e := m["edges"].([]any)[0].(map[string]any)
			e["b"] = e["a"]
		}, "self-edge"},
		{"negative capacity", func(m map[string]any) {
			m["edges"].([]any)[0].(map[string]any)["cap_gbps"] = -40.0
		}, "negative capacity"},
		{"bad hall", func(m map[string]any) {
			m["hall"] = map[string]any{"rows": 0, "slots": 16}
		}, "hall"},
		{"oversize hall", func(m map[string]any) {
			m["hall"] = map[string]any{"rows": 1 << 12, "slots": 1 << 12}
		}, "rack cap"},
		{"duplicated edge overruns radix", func(m map[string]any) {
			// Parallel edges are legal trunks, but duplicating until the
			// endpoint's radix overflows must fail the port-fit check.
			edges := m["edges"].([]any)
			first := edges[0].(map[string]any)
			for i := 0; i < 16; i++ {
				edges = append(edges, map[string]any{"a": first["a"], "b": first["b"], "cap_gbps": first["cap_gbps"]})
			}
			m["edges"] = edges
		}, "ports"},
		{"disconnected", func(m map[string]any) { m["edges"] = []any{} }, "not connected"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := validDocJSON(t)
			c.mutate(m)
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = interchange.LoadCtx(context.Background(), b)
			if err == nil {
				t.Fatal("corrupt document accepted")
			}
			if !errors.Is(err, physerr.ErrOutOfRange) {
				t.Fatalf("error kind = %v, want ErrOutOfRange", err)
			}
			if !strings.Contains(err.Error(), c.errHas) {
				t.Fatalf("error %q does not mention %q", err, c.errHas)
			}
		})
	}

	t.Run("trailing data", func(t *testing.T) {
		m := validDocJSON(t)
		b, _ := json.Marshal(m)
		if _, _, err := interchange.LoadCtx(context.Background(), append(b, []byte("{}")...)); err == nil || !errors.Is(err, physerr.ErrOutOfRange) {
			t.Fatalf("trailing data: err = %v, want ErrOutOfRange", err)
		}
	})
	t.Run("not json", func(t *testing.T) {
		if _, _, err := interchange.LoadCtx(context.Background(), []byte("rows: 6\nslots: 16\n")); err == nil || !errors.Is(err, physerr.ErrOutOfRange) {
			t.Fatalf("yaml-ish input: err = %v, want ErrOutOfRange", err)
		}
	})
	t.Run("oversize node count", func(t *testing.T) {
		// Declared via a handcrafted prefix so the test doesn't allocate a
		// million nodes: Validate must reject before Topology ever runs.
		d := &interchange.Document{Format: interchange.Format, Version: interchange.Version, Name: "x",
			Nodes: make([]interchange.Node, topology.MaxSwitches+1)}
		if err := d.Validate(); err == nil || !errors.Is(err, physerr.ErrOutOfRange) {
			t.Fatalf("oversize: err = %v, want ErrOutOfRange", err)
		}
	})
}

// TestParallelEdgesAreLegal pins the multigraph contract: a document may
// carry parallel a–b edges (trunk lanes) as long as the ports fit.
func TestParallelEdgesAreLegal(t *testing.T) {
	doc := &interchange.Document{
		Format: interchange.Format, Version: interchange.Version, Name: "trunked-pair",
		Nodes: []interchange.Node{
			{ID: 0, Role: "tor", Radix: 4, RateGbps: 100},
			{ID: 1, Role: "tor", Radix: 4, RateGbps: 100},
		},
		Edges: []interchange.Edge{{A: 0, B: 1, CapGbps: 100}, {A: 0, B: 1, CapGbps: 100}},
	}
	b, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tp, _, err := interchange.LoadCtx(context.Background(), b)
	if err != nil {
		t.Fatalf("parallel trunk rejected: %v", err)
	}
	if tp.NumEdges() != 2 {
		t.Fatalf("trunk collapsed to %d edges", tp.NumEdges())
	}
}

func TestLoadFileBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.json")
	if _, _, err := interchange.LoadFileCtx(context.Background(), path); err == nil {
		t.Error("missing file accepted")
	}
	// A canceled context must short-circuit with the canceled kind.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := interchange.LoadCtx(ctx, []byte("{}")); !errors.Is(err, physerr.ErrCanceled) {
		t.Errorf("canceled load: err = %v, want ErrCanceled", err)
	}
}

// TestPodRoundTrip checks the pointer encoding of "no pod": -1 emits as
// an absent field and loads back as -1; real pods (including 0) survive.
func TestPodRoundTrip(t *testing.T) {
	tp := topology.NewTopology("pods")
	a := tp.AddSwitch(topology.Node{Role: topology.RoleToR, Radix: 2, Rate: 100, Pod: 0})
	b := tp.AddSwitch(topology.Node{Role: topology.RoleSpine, Radix: 2, Rate: 100, Pod: -1})
	tp.Link(a, b)
	encoded, err := interchange.FromTopology(tp).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(encoded), `"pod": -1`) {
		t.Fatal("pod -1 leaked into the document; it must be omitted")
	}
	loaded, _, err := interchange.LoadCtx(context.Background(), encoded)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Nodes[0].Pod != 0 || loaded.Nodes[1].Pod != -1 {
		t.Fatalf("pods drifted: %d, %d", loaded.Nodes[0].Pod, loaded.Nodes[1].Pod)
	}
}

// seedDocs returns the documents committed as the fuzz seed corpus, so
// the corpus generator (below) and tests share one source of truth.
func seedDocs(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, p := range familyParams {
		if name != "jellyfish" && name != "leafspine" && name != "flatrandom" {
			continue
		}
		tp, err := cli.BuildTopology(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := interchange.FromTopology(tp).Encode()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// TestFuzzSeedsLoad keeps the committed corpus honest: every seed must
// be a loadable document (the fuzzer mutates from valid starting points).
func TestFuzzSeedsLoad(t *testing.T) {
	for name, b := range seedDocs(t) {
		if _, _, err := interchange.LoadCtx(context.Background(), b); err != nil {
			t.Errorf("seed %s does not load: %v", name, err)
		}
	}
}

func FuzzInterchangeLoad(f *testing.F) {
	// Seeds: the committed corpus families plus handcrafted near-misses.
	for name, p := range familyParams {
		if name != "jellyfish" && name != "leafspine" && name != "flatrandom" {
			continue
		}
		tp, err := cli.BuildTopology(p)
		if err != nil {
			f.Fatal(err)
		}
		b, err := interchange.FromTopology(tp).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"format":"physdep-topology","version":1,"name":"x","nodes":[{"id":0,"role":"tor","radix":1}],"edges":[]}`))
	f.Add([]byte(`{"format":"physdep-topology","version":2}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(fmt.Sprintf(`{"format":%q,"version":%d,"name":"e","nodes":[{"id":0,"role":"tor","radix":9}],"edges":[{"a":0,"b":0}]}`, interchange.Format, interchange.Version)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Contract under arbitrary input: never panic, and either return a
		// structured error or a topology that passes its own validation
		// and re-emits to a document that loads again.
		tp, doc, err := interchange.LoadCtx(context.Background(), data)
		if err != nil {
			if tp != nil || doc != nil {
				t.Fatal("non-nil results alongside an error")
			}
			return
		}
		if err := tp.Validate(); err != nil {
			t.Fatalf("loaded topology fails validation: %v", err)
		}
		re, err := interchange.FromTopology(tp).Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if _, _, err := interchange.LoadCtx(context.Background(), re); err != nil {
			t.Fatalf("re-emitted document does not load: %v", err)
		}
	})
}
