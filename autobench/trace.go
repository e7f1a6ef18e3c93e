package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into the program: name,
// interval relative to the recorder's epoch, the span that caused it and
// the op (vehicle index, slice number, campaign number) it belongs to.
type Span struct {
	Name       string
	Start, End time.Duration
	Parent     SpanRef
	Op         int64
}

// SpanRef addresses a span by track and index; Track < 0 means none.
type SpanRef struct{ Track, Idx int32 }

var noSpan = SpanRef{Track: -1}

// Track is the span buffer of one thread of execution: the benchmark's
// coordinating goroutine, one fleet shard, or one zone kernel of a
// parallel vehicle. Exactly one goroutine appends to a track at a time,
// so recording takes no lock.
//
// Weight is the track's share of wall time: 1 for the coordinator, 1/W
// for each of W tracks that run concurrently under one coordinator span.
// A span's self time subtracts its children weighted by their track's
// weight relative to its own, so self times over all tracks add up to
// the coordinator's wall time.
type Track struct {
	ID     int32
	Name   string
	Weight float64
	spans  []Span
	stack  []int32
	rec    *Recorder
	labels []context.Context // pprof label contexts parallel to stack
	// outer is the label context restored when the track's last open span
	// closes: the label of the coordinator span the track runs under.
	outer context.Context
}

// Recorder keeps every span in memory until the run ends. A nil
// *Recorder (and the nil *Track it hands out) records nothing, so
// untraced runs pay one branch per call site.
type Recorder struct {
	epoch  time.Time
	tracks []*Track
	// labels maps a span name to its pprof label context when profiling,
	// so a CPU profile splits opaque calls by the layer around them.
	labels map[string]context.Context
	base   context.Context
}

// NewRecorder starts a recorder. With profile set, Begin/End also switch
// the goroutine's pprof labels to {"layer": span name}.
func NewRecorder(profile bool) *Recorder {
	r := &Recorder{epoch: time.Now()}
	if profile {
		r.labels = map[string]context.Context{}
		r.base = context.Background()
	}
	return r
}

// NewTrack adds a track whose spans run under the coordinator span named
// outer ("" for the coordinator itself). Tracks must be created before
// concurrent use.
func (r *Recorder) NewTrack(name string, weight float64, outer string) *Track {
	if r == nil {
		return nil
	}
	t := &Track{ID: int32(len(r.tracks)), Name: name, Weight: weight, rec: r, outer: r.base}
	if r.labels != nil && outer != "" {
		r.Label(outer)
		t.outer = r.labels[outer]
	}
	r.tracks = append(r.tracks, t)
	return t
}

// Label pre-builds the pprof label context for a span name; call for
// every name before tracks run concurrently.
func (r *Recorder) Label(names ...string) {
	if r == nil || r.labels == nil {
		return
	}
	for _, n := range names {
		if _, ok := r.labels[n]; !ok {
			r.labels[n] = pprof.WithLabels(r.base, pprof.Labels("layer", n))
		}
	}
}

// Now is the recorder clock.
func (r *Recorder) Now() time.Duration { return time.Since(r.epoch) }

// Begin opens a span whose parent is the innermost open span on this
// track, or parent when the track has none open.
func (t *Track) Begin(name string, op int64, parent SpanRef) SpanRef {
	if t == nil {
		return noSpan
	}
	if n := len(t.stack); n > 0 {
		parent = SpanRef{t.ID, t.stack[n-1]}
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Start: t.rec.Now(), Parent: parent, Op: op})
	t.stack = append(t.stack, i)
	if t.rec.labels != nil {
		ctx := t.rec.labels[name]
		if ctx == nil {
			ctx = t.outer
		}
		t.labels = append(t.labels, ctx)
		pprof.SetGoroutineLabels(ctx)
	}
	return SpanRef{t.ID, i}
}

// End closes the innermost open span.
func (t *Track) End() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = t.rec.Now()
	t.stack = t.stack[:n]
	if t.rec.labels != nil {
		t.labels = t.labels[:n]
		ctx := t.outer
		if n > 0 {
			ctx = t.labels[n-1]
		}
		pprof.SetGoroutineLabels(ctx)
	}
}

// Add records an already-measured span (a gap the benchmark attributes
// after the fact, such as a pool reset between two callbacks).
func (t *Track) Add(s Span) SpanRef {
	if t == nil {
		return noSpan
	}
	t.spans = append(t.spans, s)
	return SpanRef{t.ID, int32(len(t.spans) - 1)}
}

// Layer is one row of the per-layer table.
type Layer struct {
	Name  string
	Count int
	// Total is the summed span duration; Raw the summed self time on the
	// span's own track; Self that self time weighted into coordinator wall
	// time (see Track), the figure that adds up across layers.
	Total, Raw, Self time.Duration
}

// selfTimes returns each span's self time on its own track, indexed like
// r.tracks[t].spans: its duration minus its children's durations, each
// scaled by the child track's weight over the parent track's weight.
func (r *Recorder) selfTimes() [][]float64 {
	self := make([][]float64, len(r.tracks))
	for ti, t := range r.tracks {
		self[ti] = make([]float64, len(t.spans))
		for i, s := range t.spans {
			self[ti][i] = float64(s.End - s.Start)
		}
	}
	for _, t := range r.tracks {
		for _, s := range t.spans {
			if s.Parent.Track < 0 {
				continue
			}
			pt := r.tracks[s.Parent.Track]
			self[s.Parent.Track][s.Parent.Idx] -= float64(s.End-s.Start) * t.Weight / pt.Weight
		}
	}
	return self
}

// Layers aggregates spans by name into the per-layer table, sorted by
// self time, largest first.
func (r *Recorder) Layers() []Layer {
	self := r.selfTimes()
	byName := map[string]*Layer{}
	var order []string
	for ti, t := range r.tracks {
		for i, s := range t.spans {
			l := byName[s.Name]
			if l == nil {
				l = &Layer{Name: s.Name}
				byName[s.Name] = l
				order = append(order, s.Name)
			}
			l.Count++
			l.Total += s.End - s.Start
			l.Raw += time.Duration(self[ti][i])
			l.Self += time.Duration(self[ti][i] * t.Weight)
		}
	}
	out := make([]Layer, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// layerOf returns the named row, zero if absent.
func layerOf(ls []Layer, name string) Layer {
	for _, l := range ls {
		if l.Name == name {
			return l
		}
	}
	return Layer{Name: name}
}

// WriteChrome writes every span as a Chrome trace_event complete event,
// one thread per track.
func (r *Recorder) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	first := true
	emit := func(e event) error {
		if !first {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(e)
	}
	for _, t := range r.tracks {
		if err := emit(event{Name: "thread_name", Ph: "M", Pid: 1, Tid: t.ID,
			Args: map[string]any{"name": t.Name}}); err != nil {
			return err
		}
		for i, s := range t.spans {
			args := map[string]any{"op": s.Op, "span": fmt.Sprintf("%d.%d", t.ID, i)}
			if s.Parent.Track >= 0 {
				args["parent"] = fmt.Sprintf("%d.%d", s.Parent.Track, s.Parent.Idx)
			}
			if err := emit(event{Name: s.Name, Ph: "X", Pid: 1, Tid: t.ID,
				Ts:  float64(s.Start) / 1e3,
				Dur: float64(s.End-s.Start) / 1e3, Args: args}); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
