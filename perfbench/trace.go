package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request share req; parent is the id of the enclosing span (0 = root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

func (s span) durMs() float64  { return (s.End - s.Start) / 1e3 }
func (s span) selfMs() float64 { return s.Self / 1e3 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced runs pay only a nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3
}

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent int, req int64) int {
	return t.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span that started at a known time, such as a request's
// due time.
func (t *tracer) beginAt(name string, parent int, req int64, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: t.since(at), End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.since(at)
	t.mu.Unlock()
}

// finish computes every span's self time — its duration minus the part
// of it covered by its children — and returns the spans.
func (t *tracer) finish() []span {
	kids := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return t.spans
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// named returns the spans called name, in recording order.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfMs returns the self times in ms of the spans called name.
func selfMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range named(spans, name) {
		out = append(out, s.selfMs())
	}
	return out
}

// writeSpans writes the spans of a traced run as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
