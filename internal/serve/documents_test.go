package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"physdep/internal/cli"
	"physdep/internal/interchange"
	"physdep/internal/obs"
)

// uploadSmallTopoDoc builds the smallTopo fabric with the generator,
// emits it as an interchange document, uploads it, and returns the
// digest reference plus the raw upload response.
func uploadSmallTopoDoc(t *testing.T, h http.Handler) (string, DocumentResponse) {
	t.Helper()
	return uploadSmallTopoDocWithHall(t, h, nil)
}

// uploadSmallTopoDocWithHall is uploadSmallTopoDoc for a document that
// pins hall (nil for none).
func uploadSmallTopoDocWithHall(t *testing.T, h http.Handler, hall *interchange.Hall) (string, DocumentResponse) {
	t.Helper()
	var p cli.TopoParams
	if err := json.Unmarshal([]byte(smallTopo), &p); err != nil {
		t.Fatal(err)
	}
	topo, err := cli.BuildTopology(p)
	if err != nil {
		t.Fatal(err)
	}
	d := interchange.FromTopology(topo)
	d.Hall = hall
	doc, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rr := do(h, nil, "POST", "/v1/documents", string(doc))
	if rr.Code != http.StatusOK {
		t.Fatalf("upload = %d: %s", rr.Code, rr.Body)
	}
	var resp DocumentResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Document, docRefPrefix) {
		t.Fatalf("upload returned ref %q, want a %q digest", resp.Document, docRefPrefix)
	}
	return resp.Document, resp
}

// TestUploadedDocumentParity is the acceptance criterion for the daemon
// wiring: a fabric served from an uploaded interchange document answers
// with response bytes equal to the equivalent generator-spec request, on
// both /v1/stats and /v1/evaluate — the document is just another way to
// name the same fabric, not a different evaluation path. A document's
// hall applies like cli.ResolveHall says: it fills the dimensions the
// request leaves unset, and a dimension the request sets wins.
func TestUploadedDocumentParity(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	ref, up := uploadSmallTopoDoc(t, h)
	if up.Switches == 0 || up.Links == 0 {
		t.Fatalf("upload echo is empty: %+v", up)
	}
	hallRef, _ := uploadSmallTopoDocWithHall(t, h, &interchange.Hall{Rows: 4, Slots: 12})

	fileTopo := `{"name":"file","file":"` + ref + `"}`
	hallTopo := `{"name":"file","file":"` + hallRef + `"}`
	for _, c := range []struct {
		path, specBody, fileBody string
	}{
		{"/v1/stats", `{"topo":` + smallTopo + `}`, `{"topo":` + fileTopo + `}`},
		{"/v1/evaluate", `{"topo":` + smallTopo + `,"anneal":50}`, `{"topo":` + fileTopo + `,"anneal":50}`},
		// The document's 4×12 hall is the hall when the request names none.
		{"/v1/evaluate", `{"topo":` + smallTopo + `,"hall":{"rows":4,"slots":12}}`, `{"topo":` + hallTopo + `}`},
		// An explicit request dimension overrides the document's.
		{"/v1/evaluate", `{"topo":` + smallTopo + `,"hall":{"rows":5,"slots":12}}`, `{"topo":` + hallTopo + `,"hall":{"rows":5}}`},
	} {
		specRR := do(h, nil, "POST", c.path, c.specBody)
		fileRR := do(h, nil, "POST", c.path, c.fileBody)
		if specRR.Code != http.StatusOK || fileRR.Code != http.StatusOK {
			t.Fatalf("%s: spec = %d, file = %d: %s %s", c.path, specRR.Code, fileRR.Code, specRR.Body, fileRR.Body)
		}
		if specRR.Body.String() != fileRR.Body.String() {
			t.Fatalf("%s %s: uploaded-document response diverges from spec-built:\n%s\nvs\n%s",
				c.path, c.fileBody, fileRR.Body, specRR.Body)
		}
	}
}

// TestDocumentHallNeedsResidentDocument: applying a document's hall needs
// the document, so a hall-less evaluate of a digest that is not resident
// is the same re-upload 422 the topology store gives; a request whose
// hall is fully explicit never consults the document for its key.
func TestDocumentHallNeedsResidentDocument(t *testing.T) {
	h := New(Config{}).Handler()
	absent := `{"name":"file","file":"sha256:` + strings.Repeat("ab", 32) + `"}`
	for _, body := range []string{
		`{"topo":` + absent + `}`,
		`{"topo":` + absent + `,"hall":{"slots":12}}`,
		`{"topo":` + absent + `,"hall":{"rows":4,"slots":12}}`,
	} {
		rr := do(h, nil, "POST", "/v1/evaluate", body)
		if rr.Code != http.StatusUnprocessableEntity || !strings.Contains(rr.Body.String(), "not resident") {
			t.Fatalf("%s: status = %d, want the re-upload 422: %s", body, rr.Code, rr.Body)
		}
	}
}

// TestWhatIfOnOneToRIsUnprocessable: a document with fewer than two ToRs
// has no traffic to route, which is the client's input error (422), not
// a daemon failure (500).
func TestWhatIfOnOneToRIsUnprocessable(t *testing.T) {
	h := New(Config{}).Handler()
	doc := `{"format":"physdep-topology","version":1,"name":"one-tor",` +
		`"nodes":[{"id":0,"role":"tor","radix":8,"rate_gbps":100,"server_ports":8}],"edges":[]}`
	rr := do(h, nil, "POST", "/v1/documents", doc)
	if rr.Code != http.StatusOK {
		t.Fatalf("upload = %d: %s", rr.Code, rr.Body)
	}
	var up DocumentResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &up); err != nil {
		t.Fatal(err)
	}
	rr = do(h, nil, "POST", "/v1/whatif", `{"topo":{"name":"file","file":"`+up.Document+`"}}`)
	if rr.Code != http.StatusUnprocessableEntity || !strings.Contains(rr.Body.String(), "no load was routed") {
		t.Fatalf("whatif on one ToR = %d, want 422 naming the cause: %s", rr.Code, rr.Body)
	}
}

// TestUploadedDocumentCachesAndReloads: file specs ride the same result
// cache, topology store, and invalidation path as generated specs.
func TestUploadedDocumentCachesAndReloads(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	ref, _ := uploadSmallTopoDoc(t, h)
	body := `{"topo":{"name":"file","file":"` + ref + `"}}`

	first := do(h, nil, "POST", "/v1/stats", body)
	if first.Code != http.StatusOK || first.Header().Get("X-Physdepd-Cache") != "miss" {
		t.Fatalf("first = %d (%q)", first.Code, first.Header().Get("X-Physdepd-Cache"))
	}
	before := obs.TakeSnapshot()
	second := do(h, nil, "POST", "/v1/stats", body)
	after := obs.TakeSnapshot()
	if second.Header().Get("X-Physdepd-Cache") != "hit" || second.Body.String() != first.Body.String() {
		t.Fatalf("replay = %q, want byte-identical hit", second.Header().Get("X-Physdepd-Cache"))
	}
	if d := counterDelta(before, after, "serve.store.build"); d != 0 {
		t.Fatalf("cache hit rebuilt the document fabric (serve.store.build delta %d)", d)
	}

	rr := do(h, nil, "POST", "/v1/reload", body)
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "true") {
		t.Fatalf("reload of a file spec = %d: %s", rr.Code, rr.Body)
	}
}

// TestDocumentRejections covers the upload and reference failure modes:
// invalid documents are refused at upload, and specs referencing paths,
// malformed digests, or digests that were never uploaded are 422s.
func TestDocumentRejections(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	if rr := do(h, nil, "POST", "/v1/documents", `{"format":"physdep-topology","version":99}`); rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("future-version document upload = %d, want 422: %s", rr.Code, rr.Body)
	}
	if rr := do(h, nil, "POST", "/v1/documents", "not json"); rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("garbage upload = %d, want 422", rr.Code)
	}
	for name, ref := range map[string]string{
		"filesystem path":  "/etc/fabric.json",
		"malformed digest": "sha256:zz",
		"absent digest":    "sha256:" + strings.Repeat("ab", 32),
	} {
		body := `{"topo":{"name":"file","file":"` + ref + `"}}`
		if rr := do(h, nil, "POST", "/v1/stats", body); rr.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, want 422: %s", name, rr.Code, rr.Body)
		}
	}
}

// TestDocumentUploadIsIdempotent: re-uploading the same bytes returns
// the same digest and does not disturb cached results keyed on it.
func TestDocumentUploadIsIdempotent(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	ref1, _ := uploadSmallTopoDoc(t, h)
	body := `{"topo":{"name":"file","file":"` + ref1 + `"}}`
	first := do(h, nil, "POST", "/v1/stats", body)
	ref2, _ := uploadSmallTopoDoc(t, h)
	if ref1 != ref2 {
		t.Fatalf("same bytes, different digests: %s vs %s", ref1, ref2)
	}
	replay := do(h, nil, "POST", "/v1/stats", body)
	if replay.Header().Get("X-Physdepd-Cache") != "hit" || replay.Body.String() != first.Body.String() {
		t.Fatal("re-upload disturbed the cached result")
	}
}
