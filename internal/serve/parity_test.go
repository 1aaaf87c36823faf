package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"physdep/internal/experiments"
)

func goldenPath(id string) string {
	return filepath.Join("..", "experiments", "testdata", "golden", id+".txt")
}

func postEvaluate(t *testing.T, base, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// TestDaemonMatchesGolden replays the entire golden corpus through the
// real HTTP surface and diffs each daemon-rendered table byte-for-byte
// against the committed files — the parity contract: serving an
// experiment and batch-running it are the same computation, down to the
// last byte. A second pass replays one experiment and pins that the
// cache hit re-serves the first response's exact bytes.
func TestDaemonMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full corpus; skipping in -short mode")
	}
	ts := httptest.NewServer(New(Config{MaxInFlight: len(experiments.Order()) + 1}).Handler())
	defer ts.Close()

	var raw sync.Map // experiment ID -> raw response bytes, for the replay pass
	t.Run("corpus", func(t *testing.T) {
		for _, id := range experiments.Order() {
			id := id
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				status, _, body := postEvaluate(t, ts.URL, fmt.Sprintf(`{"experiment":%q}`, id))
				if status != http.StatusOK {
					t.Fatalf("status = %d, body %s", status, body)
				}
				raw.Store(id, body)
				var resp EvaluateResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Experiment != id {
					t.Fatalf("response names experiment %q, want %q", resp.Experiment, id)
				}
				want, err := os.ReadFile(goldenPath(id))
				if err != nil {
					t.Fatalf("no golden file for %s (run `go run ./cmd/experiments -update-golden`): %v", id, err)
				}
				if resp.Rendered != string(want) {
					t.Fatalf("%s: daemon response diverges from %s (the daemon never rewrites its oracle; if the table is meant to change, run `go run ./cmd/experiments -update-golden`)\ngot:\n%s",
						id, goldenPath(id), resp.Rendered)
				}
			})
		}
	})

	t.Run("replay-is-byte-identical-hit", func(t *testing.T) {
		id := experiments.Order()[0]
		first, _ := raw.Load(id)
		status, hdr, body := postEvaluate(t, ts.URL, fmt.Sprintf(`{"experiment":%q}`, id))
		if status != http.StatusOK {
			t.Fatalf("replay status = %d", status)
		}
		if got := hdr.Get("X-Physdepd-Cache"); got != "hit" {
			t.Fatalf("replay X-Physdepd-Cache = %q, want hit", got)
		}
		if !bytes.Equal(body, first.([]byte)) {
			t.Fatalf("%s: cache hit returned different bytes than the original response", id)
		}
	})
}
