package obs

import (
	"strings"
	"sync"
	"testing"
)

// reset puts the package into a known enabled state for a test and
// restores disabled+empty afterwards.
func reset(t *testing.T) {
	t.Helper()
	Reset()
	Enable()
	t.Cleanup(func() {
		Disable()
		Reset()
	})
}

func TestCountersGaugesDisabledAreNoops(t *testing.T) {
	Reset()
	Disable()
	Add("x", 5)
	Inc("x")
	SetGauge("g", 2.5)
	MaxGauge("m", 9)
	Time("t")()
	if sp := StartSpan("root"); sp != nil {
		t.Fatal("StartSpan while disabled should return nil")
	}
	s := TakeSnapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Spans) != 0 {
		t.Fatalf("disabled collection still recorded: %+v", s)
	}
}

func TestCountersGaugesCollect(t *testing.T) {
	reset(t)
	Add("k.calls", 2)
	Inc("k.calls")
	SetGauge("g", 1.5)
	SetGauge("g", 2.5)
	MaxGauge("m", 3)
	MaxGauge("m", 1) // lower: ignored
	s := TakeSnapshot()
	if s.Counters["k.calls"] != 3 {
		t.Errorf("counter = %d, want 3", s.Counters["k.calls"])
	}
	if s.Gauges["g"] != 2.5 {
		t.Errorf("gauge = %v, want 2.5 (last write wins)", s.Gauges["g"])
	}
	if s.Gauges["m"] != 3 {
		t.Errorf("max gauge = %v, want 3", s.Gauges["m"])
	}
}

func TestTimeRecordsNSAndCalls(t *testing.T) {
	reset(t)
	for i := 0; i < 3; i++ {
		Time("op")()
	}
	s := TakeSnapshot()
	if s.Counters["op.calls"] != 3 {
		t.Errorf("op.calls = %d, want 3", s.Counters["op.calls"])
	}
	if s.Counters["op.ns"] < 0 {
		t.Errorf("op.ns = %d, want >= 0", s.Counters["op.ns"])
	}
}

func TestSpanNesting(t *testing.T) {
	reset(t)
	root := StartSpan("evaluate")
	root.SetAttr("rows", 7)
	p := root.Child("placement")
	p.End()
	c := root.Child("cabling")
	g := c.Child("routing")
	g.End()
	c.End()
	root.End()

	s := TakeSnapshot()
	if len(s.Spans) != 1 {
		t.Fatalf("got %d roots, want 1", len(s.Spans))
	}
	r := s.Spans[0]
	if r.Name != "evaluate" || r.Attrs["rows"] != 7 {
		t.Fatalf("root = %+v", r)
	}
	if len(r.Children) != 2 || r.Children[0].Name != "placement" || r.Children[1].Name != "cabling" {
		t.Fatalf("children = %+v", r.Children)
	}
	if len(r.Children[1].Children) != 1 || r.Children[1].Children[0].Name != "routing" {
		t.Fatalf("grandchildren = %+v", r.Children[1].Children)
	}
	if r.DurNS < r.Children[1].DurNS {
		t.Errorf("parent dur %d < child dur %d", r.DurNS, r.Children[1].DurNS)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", 1)
	sp2 := sp.Child("c")
	sp2.End()
	sp.End()
}

func TestResetClearsEverything(t *testing.T) {
	reset(t)
	Inc("c")
	SetGauge("g", 1)
	sp := StartSpan("s")
	sp.End()
	Reset()
	s := TakeSnapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Spans) != 0 {
		t.Fatalf("reset left state behind: %+v", s)
	}
}

func TestRenderTrace(t *testing.T) {
	reset(t)
	root := StartSpan("experiment:E1")
	ch := root.Child("deploy")
	ch.End()
	root.End()
	Inc("deploy.tasks")
	SetGauge("par.workers", 8)
	out := TakeSnapshot().RenderTrace()
	for _, want := range []string{"experiment:E1", "deploy", "counters:", "deploy.tasks", "gauges:", "par.workers"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestSortSpansStableOrder(t *testing.T) {
	spans := []*SpanData{
		{Name: "b", StartNS: 10},
		{Name: "a", StartNS: 10},
		{Name: "c", StartNS: 5},
	}
	SortSpans(spans)
	got := spans[0].Name + spans[1].Name + spans[2].Name
	if got != "cab" {
		t.Fatalf("order = %q, want cab", got)
	}
}

// TestRootSpansRingBounded: a process that ends root spans forever and
// never Resets (the daemon) retains at most maxRoots of them — the
// newest, oldest first — counts every eviction, and Reset empties the
// ring.
func TestRootSpansRingBounded(t *testing.T) {
	reset(t)
	const total = 10_000
	for i := 0; i < total; i++ {
		sp := StartSpan("root")
		sp.SetAttr("i", int64(i))
		sp.End()
	}
	s := TakeSnapshot()
	if len(s.Spans) != maxRoots {
		t.Fatalf("retained %d root spans, want the cap %d", len(s.Spans), maxRoots)
	}
	for k, sp := range s.Spans {
		if want := int64(total - maxRoots + k); sp.Attrs["i"] != want {
			t.Fatalf("root %d is span #%d, want #%d (newest kept, oldest first)", k, sp.Attrs["i"], want)
		}
	}
	if got := s.Counters["obs.spans.dropped"]; got != total-maxRoots {
		t.Errorf("obs.spans.dropped = %d, want %d", got, total-maxRoots)
	}
	Reset()
	if n := len(TakeSnapshot().Spans); n != 0 {
		t.Fatalf("Reset left %d root spans", n)
	}
	StartSpan("after").End()
	if s := TakeSnapshot(); len(s.Spans) != 1 || s.Spans[0].Name != "after" {
		t.Errorf("after Reset: spans = %+v, want just the new root", s.Spans)
	}

	// Concurrent ends and snapshots (run under -race in check.sh) keep the
	// same accounting: every root is either retained or counted dropped.
	Reset()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				StartSpan("root").End()
				if i%500 == 0 {
					TakeSnapshot()
				}
			}
		}()
	}
	wg.Wait()
	s = TakeSnapshot()
	if kept, dropped := len(s.Spans), s.Counters["obs.spans.dropped"]; kept != maxRoots || int(dropped) != total-maxRoots {
		t.Errorf("concurrent: kept %d, dropped %d; want %d and %d", kept, dropped, maxRoots, total-maxRoots)
	}
}
