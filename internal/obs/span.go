package obs

import (
	"sort"
	"time"
)

// SpanData is the immutable record of a finished span: what the
// manifest serializes and what the trace renderer prints. StartNS is
// the offset from the collection epoch (process start or last Reset),
// so span records are comparable within one snapshot.
type SpanData struct {
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	DurNS    int64            `json:"dur_ns"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*SpanData      `json:"children,omitempty"`
}

// Span is an in-flight timed region. Spans nest explicitly: a child is
// created with (*Span).Child, never inferred from goroutine identity,
// which is what keeps the tree shape deterministic under the parallel
// kernels — concurrent work items are siblings or independent roots by
// construction. A nil *Span is a valid no-op (what StartSpan returns
// while collection is disabled), so instrumentation sites need no
// guards.
type Span struct {
	parent *Span
	start  time.Time
	data   *SpanData
}

// StartSpan opens a root span. While collection is disabled it returns
// nil, and every method on a nil span is a no-op.
func StartSpan(name string) *Span {
	if !enabled.Load() {
		return nil
	}
	registry.mu.RLock()
	epoch := registry.start
	registry.mu.RUnlock()
	now := time.Now()
	return &Span{
		start: now,
		data:  &SpanData{Name: name, StartNS: now.Sub(epoch).Nanoseconds()},
	}
}

// Child opens a nested span under s. Children must End before their
// parent (well-nestedness, checked by TestQuickSpansWellNested); ending
// the parent first drops any still-open children from the record.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	return &Span{
		parent: s,
		start:  now,
		data:   &SpanData{Name: name, StartNS: s.data.StartNS + now.Sub(s.start).Nanoseconds()},
	}
}

// SetAttr attaches an integer attribute (allocation counts, worker ids,
// row counts) to the span record.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = map[string]int64{}
	}
	s.data.Attrs[key] = v
}

// End closes the span, fixing its duration and attaching the record to
// its parent — or to the registry's finished roots if it has none (see
// keepRoot for the retention cap). Ending a span twice would
// double-record it; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.data.DurNS = time.Since(s.start).Nanoseconds()
	if s.parent != nil {
		// The parent is still open (well-nested usage), so its data is
		// only touched from span-structured code paths; the registry lock
		// serializes sibling appends from concurrent children.
		registry.mu.Lock()
		s.parent.data.Children = append(s.parent.data.Children, s.data)
		registry.mu.Unlock()
		return
	}
	registry.mu.Lock()
	evicted := keepRoot(s.data)
	registry.mu.Unlock()
	if evicted {
		counterCell("obs.spans.dropped").Add(1)
	}
}

// maxRoots caps the finished root spans the registry retains. A
// long-running process that never calls Reset (physdepd ends a root per
// evaluated request) would otherwise grow the root list without bound; a
// full cmd/experiments run ends 44, far below the cap.
const maxRoots = 1024

// keepRoot records a finished root span, evicting the oldest once
// maxRoots are held, and reports whether it evicted one. The caller
// holds registry.mu.
func keepRoot(d *SpanData) (evicted bool) {
	if len(registry.roots) < maxRoots {
		registry.roots = append(registry.roots, d)
		return false
	}
	registry.roots[registry.oldest] = d
	registry.oldest = (registry.oldest + 1) % maxRoots
	return true
}

// SortSpans orders a span forest by start offset, then name — the
// stable presentation order the manifest and trace renderer use
// (concurrent roots finish in scheduling order; sorting removes that
// nondeterminism from the report layout).
func SortSpans(spans []*SpanData) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spans[i].Name < spans[j].Name
	})
	for _, sp := range spans {
		SortSpans(sp.Children)
	}
}
