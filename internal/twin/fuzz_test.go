package twin

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzTwinRules parses arbitrary bytes as a twin document and, when the
// document is accepted, runs the full schema + rule suite over it. The
// loader must reject malformed documents with an error (never a panic),
// and every accepted model — however degenerate — must survive CheckAll
// and get the same findings from the scanning reference model. The seeds
// under testdata/fuzz cover attributes outside a kind's layout, on an
// unknown kind, tags, and entities with no attributes.
func FuzzTwinRules(f *testing.F) {
	f.Add([]byte(`{"entities":[],"relations":[]}`))
	f.Add([]byte(`{"entities":[{"ID":"hall","Kind":"hall","Attrs":{"rows":2,"racks_per_row":4}}],"relations":[]}`))
	f.Add([]byte(`{"entities":[{"ID":"r0","Kind":"rack"},{"ID":"s0","Kind":"switch"}],` +
		`"relations":[{"From":"r0","Verb":"contains","To":"s0"}]}`))
	// Regression shapes: null entity, duplicate IDs, dangling relation,
	// unknown kind/verb, truncated JSON.
	f.Add([]byte(`{"entities":[null]}`))
	f.Add([]byte(`{"entities":[{"ID":"x"},{"ID":"x"}]}`))
	f.Add([]byte(`{"relations":[{"From":"ghost","Verb":"feeds","To":"ghost"}]}`))
	f.Add([]byte(`{"entities":[{"ID":"u","Kind":"ufo"}],"relations":[]}`))
	f.Add([]byte(`{"entities":[{"ID":"a`))
	// Duplicate, self and unknown-verb relations, which the index must
	// list exactly as a scan of the relation slice does.
	f.Add([]byte(`{"entities":[{"ID":"t","Kind":"tray","Attrs":{"capacity_mm2":1}},` +
		`{"ID":"b","Kind":"bundle","Attrs":{"cross_section_mm2":1}}],"relations":[` +
		`{"From":"b","Verb":"routes-through","To":"t"},{"From":"b","Verb":"routes-through","To":"t"},` +
		`{"From":"t","Verb":"contains","To":"t"},{"From":"b","Verb":"orbits","To":"t"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Model
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		vs := CheckAll(&m, DefaultSchema(), DefaultRules())
		for _, v := range vs {
			if v.String() == "" {
				t.Fatal("violation rendered empty")
			}
		}
		if want := refCheckAll(newRefModel(&m), DefaultSchema()); !reflect.DeepEqual(vs, want) {
			t.Fatalf("indexed CheckAll diverges from the reference:\n got %v\nwant %v", vs, want)
		}
		// A loaded model must round-trip byte for byte: marshal, re-load
		// and marshal again give the same document and fingerprint.
		b, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("accepted model failed to marshal: %v", err)
		}
		var back Model
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("round-trip reload failed: %v", err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("reloaded model failed to marshal: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("round trip changed the document:\n got %s\nwant %s", again, b)
		}
		fp, err := m.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fpBack, err := back.Fingerprint(); err != nil || fpBack != fp {
			t.Fatalf("round trip changed the fingerprint: %s, want %s (err %v)", fpBack, fp, err)
		}
	})
}
