package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer of the
// program. Spans of one request share Req; Parent is the span that
// caused this one (0 for a root). Start and End are nanoseconds since
// the recorder was created.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer is the program module a span's name belongs to: the part
// before the first dot ("serve.request" → "serve").
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced code paths pass nil and pay one nil
// check per call.
type Recorder struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder whose time origin is now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// NewID reserves a span ID, so children recorded before their parent
// ends can name it.
func (r *Recorder) NewID() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// Record stores a finished span under a reserved ID (0 reserves one).
func (r *Recorder) Record(id, parent int64, name, req string, start, end time.Time) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.NewID()
	}
	s := Span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Time runs fn and records it as a root span.
func (r *Recorder) Time(name, req string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.Record(0, 0, name, req, t0, t1)
	return t1.Sub(t0)
}

// Spans returns a copy of everything recorded, ordered by start.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// merged first, so time two children share counts once, and a child
// reaching outside its parent only counts inside the parent.
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// SelfRow aggregates the spans of one name.
type SelfRow struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// SelfMSPerReq is the self time of the row's spans that belong to
	// traced requests, divided by their number; set-up, session-open and
	// replay spans do not enter it.
	SelfMSPerReq float64 `json:"self_ms_per_req"`
}

// requestSpan reports whether s belongs to a timed request rather than
// to set-up ("setup"), a session open ("…/open") or a replay.
func requestSpan(s Span) bool {
	return s.Req != "setup" && s.Req != "replay" && !strings.HasSuffix(s.Req, "/open")
}

// SelfTable aggregates self time by span name, largest first.
func SelfTable(spans []Span, tracedReqs int) []SelfRow {
	self := SelfTimes(spans)
	rows := map[string]*SelfRow{}
	reqSelf := map[string]float64{}
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &SelfRow{Name: s.Name, Layer: s.Layer()}
			rows[s.Name] = row
		}
		row.Count++
		row.TotalMS += ms(time.Duration(s.End - s.Start))
		row.SelfMS += ms(self[s.ID])
		if requestSpan(s) {
			reqSelf[s.Name] += ms(self[s.ID])
		}
	}
	out := make([]SelfRow, 0, len(rows))
	for _, row := range rows {
		row.SelfMSPerReq = perReq(reqSelf[row.Name], tracedReqs)
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// LayerTable sums a SelfTable's rows by layer, largest first.
func LayerTable(rows []SelfRow) []SelfRow {
	byLayer := map[string]*SelfRow{}
	for _, r := range rows {
		l := byLayer[r.Layer]
		if l == nil {
			l = &SelfRow{Name: r.Layer, Layer: r.Layer}
			byLayer[r.Layer] = l
		}
		l.Count += r.Count
		l.TotalMS += r.TotalMS
		l.SelfMS += r.SelfMS
		l.SelfMSPerReq += r.SelfMSPerReq
	}
	out := make([]SelfRow, 0, len(byLayer))
	for _, l := range byLayer {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// WriteTable prints the self-time table as aligned text.
func WriteTable(w io.Writer, rows []SelfRow) {
	fmt.Fprintf(w, "%-40s %-9s %7s %12s %12s %14s\n", "span", "layer", "count", "total_ms", "self_ms", "self_ms/req")
	for _, r := range rows {
		fmt.Fprintf(w, "%-40s %-9s %7d %12.3f %12.3f %14.4f\n", r.Name, r.Layer, r.Count, r.TotalMS, r.SelfMS, r.SelfMSPerReq)
	}
}

// writeTraceArtifacts writes the span dump and the self-time tables,
// by layer and by span, as JSON and as text into dir.
func writeTraceArtifacts(dir string, spans []Span, rows []SelfRow) error {
	if err := writeJSON(filepath.Join(dir, "spans.json"), spans); err != nil {
		return err
	}
	layers := LayerTable(rows)
	if err := writeJSON(filepath.Join(dir, "selftime.json"), map[string][]SelfRow{"by_layer": layers, "by_span": rows}); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "selftime.txt"))
	if err != nil {
		return err
	}
	WriteTable(f, layers)
	fmt.Fprintln(f)
	WriteTable(f, rows)
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", filepath.Base(path), err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
