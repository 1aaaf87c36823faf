package twin

import (
	"encoding/json"
	"strings"
	"testing"
)

func buildSmallModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel()
	mustAdd(t, m, newEntity("r1", KindRack,
		map[string]float64{"ru_capacity": 42, "plenum_mm2": 60000, "width_m": 0.6}))
	s1 := newEntity("s1", KindSwitch,
		map[string]float64{"radix": 32, "rate_gbps": 100, "ru": 2, "power_w": 150})
	s1.Tags = map[string]string{"vendor": "acme"}
	mustAdd(t, m, s1)
	mustRelate(t, m, "r1", VerbContains, "s1")
	return m
}

func TestJSONRoundTrip(t *testing.T) {
	m := buildSmallModel(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumEntities() != 2 {
		t.Fatalf("entities = %d", back.NumEntities())
	}
	if got := back.Related("r1", VerbContains); len(got) != 1 || got[0] != "s1" {
		t.Errorf("relations lost: %v", got)
	}
	if v, _ := back.Entity("s1").Attr("radix"); v != 32 {
		t.Errorf("attr lost: radix = %v", v)
	}
	if back.Entity("s1").Tags["vendor"] != "acme" {
		t.Error("tags lost")
	}
	// Byte equality of the canonical encodings covers every entity,
	// attribute, tag and relation.
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Errorf("round trip changed the model:\n%s\nvs\n%s", data, again)
	}
}

func TestUnmarshalRejectsCorruptDocuments(t *testing.T) {
	var m Model
	// Duplicate entity IDs.
	dup := `{"entities":[{"ID":"x","Kind":"rack"},{"ID":"x","Kind":"rack"}],"relations":[]}`
	if err := json.Unmarshal([]byte(dup), &m); err == nil {
		t.Error("duplicate IDs accepted")
	}
	// Relation to a ghost.
	ghost := `{"entities":[{"ID":"x","Kind":"rack"}],"relations":[{"From":"x","Verb":"contains","To":"ghost"}]}`
	if err := json.Unmarshal([]byte(ghost), &m); err == nil {
		t.Error("ghost relation accepted")
	}
	if err := json.Unmarshal([]byte(`{"entities":[null]}`), &m); err == nil {
		t.Error("null entity accepted")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	m := buildSmallModel(t)
	a, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("serialization not deterministic")
	}
	if !strings.Contains(string(a), `"entities"`) {
		t.Errorf("unexpected shape: %s", a)
	}
}

func TestFingerprintDetectsDrift(t *testing.T) {
	m := buildSmallModel(t)
	f1, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != 16 {
		t.Fatalf("fingerprint %q", f1)
	}
	m.Entity("s1").SetAttr("power_w", 151) // a mundane as-built error
	f2, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f2 {
		t.Error("fingerprint blind to attribute drift")
	}
}
