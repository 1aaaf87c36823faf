package twin

import (
	"encoding/json"
	"fmt"
)

// The wire format keeps the §5.2 promise concrete: a twin is plain,
// declarative data — entities and relations — that any tool can consume
// without reading automation code.

type modelJSON struct {
	Entities  []*Entity  `json:"entities"`
	Relations []Relation `json:"relations"`
}

// entityJSON is an Entity's wire shape: its exported fields, with the
// attributes as one object.
type entityJSON struct {
	ID    string
	Kind  Kind
	Attrs map[string]float64
	Tags  map[string]string
}

// MarshalJSON writes ID, Kind, Attrs and Tags, each object's keys
// sorted, and {} for an entity with no attributes or nil Tags.
func (e Entity) MarshalJSON() ([]byte, error) {
	tags := e.Tags
	if tags == nil {
		tags = map[string]string{}
	}
	return json.Marshal(entityJSON{ID: e.ID, Kind: e.Kind, Attrs: e.attrMap(), Tags: tags})
}

// UnmarshalJSON reads what MarshalJSON writes, setting each attribute
// with SetAttr once Kind is known; empty Tags stay nil.
func (e *Entity) UnmarshalJSON(data []byte) error {
	var in entityJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*e = Entity{ID: in.ID, Kind: in.Kind}
	if len(in.Tags) > 0 {
		e.Tags = in.Tags
	}
	for name, v := range in.Attrs {
		e.SetAttr(name, v)
	}
	return nil
}

// MarshalJSON serializes the model deterministically: entities sorted by
// ID, relations in insertion order.
func (m *Model) MarshalJSON() ([]byte, error) {
	m.index() // makes the kept order if Add or Remove dropped it
	out := modelJSON{Entities: m.entitiesOf(m.order), Relations: m.Relations()}
	return json.Marshal(out)
}

// UnmarshalJSON loads a model, re-validating entity uniqueness and
// relation endpoints so a corrupted file can't build an inconsistent
// twin.
func (m *Model) UnmarshalJSON(data []byte) error {
	var in modelJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	fresh := NewModel()
	for _, e := range in.Entities {
		if e == nil {
			return fmt.Errorf("twin: null entity in document")
		}
		if err := fresh.Add(e); err != nil {
			return err
		}
	}
	for _, r := range in.Relations {
		if err := fresh.Relate(r.From, r.Verb, r.To); err != nil {
			return err
		}
	}
	*m = *fresh
	return nil
}

// Fingerprint returns a stable short digest of the model's content, used
// to detect drift between an intended design and an as-built record
// without diffing whole documents. It is an FNV-1a over the canonical
// serialization.
func (m *Model) Fingerprint() (string, error) {
	b, err := m.MarshalJSON()
	if err != nil {
		return "", err
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return fmt.Sprintf("%016x", h), nil
}
