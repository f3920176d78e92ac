package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced run records one span per layer call, named by the per-layer
// metric it feeds. Spans are kept in memory and written once, at the end,
// as Chrome trace-event JSON (Perfetto opens it). The recorder is the
// benchmark's own rather than internal/obs, so a change to the program's
// tracing cannot change what the benchmark measures. Every method is a
// no-op on a nil *tracer, which is what untraced runs pass around.

type span struct {
	id, parent int64
	name       string
	track      int64
	start, end time.Duration
	args       map[string]any
}

type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID int64
	tracks int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), tracks: 1} }

// spanRef is an open span; end records it. The zero spanRef (from a nil
// tracer) is inert.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	track  int64
	name   string
	start  time.Duration
}

// newTrack reserves a timeline row for spans that run concurrently with
// others (one per worker goroutine).
func (t *tracer) newTrack() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracks++
	return t.tracks
}

// begin opens a span on the parent's track (track 1 for a root).
func (t *tracer) begin(name string, parent spanRef) spanRef {
	track := parent.track
	if track == 0 {
		track = 1
	}
	return t.beginOn(name, parent, track)
}

// beginOn opens a span on an explicit track.
func (t *tracer) beginOn(name string, parent spanRef, track int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return spanRef{t: t, id: id, parent: parent.id, track: track, name: name, start: time.Since(t.epoch)}
}

// end closes the span; args annotate it in the trace viewer.
func (s spanRef) end(args map[string]any) time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{id: s.id, parent: s.parent, name: s.name, track: s.track,
		start: s.start, end: now, args: args})
	s.t.mu.Unlock()
	return now - s.start
}

// layerSelf is one span name's aggregate.
type layerSelf struct {
	name        string
	total, self time.Duration
	count       int
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by its child spans.
func (t *tracer) selfTimes() []layerSelf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		children[s.parent] = append(children[s.parent], s)
	}
	agg := map[string]*layerSelf{}
	for _, s := range t.spans {
		covered := time.Duration(0)
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var curS, curE time.Duration
		open := false
		for _, k := range kids {
			ks, ke := max(k.start, s.start), min(k.end, s.end)
			if ke <= ks {
				continue
			}
			if open && ks <= curE {
				curE = max(curE, ke)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = ks, ke, true
		}
		if open {
			covered += curE - curS
		}
		a := agg[s.name]
		if a == nil {
			a = &layerSelf{name: s.name}
			agg[s.name] = a
		}
		a.total += s.end - s.start
		a.self += s.end - s.start - covered
		a.count++
	}
	out := make([]layerSelf, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// total returns the summed duration and count of the spans with a name.
func (t *tracer) total(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
			n++
		}
	}
	return d, n
}

// write renders the spans as Chrome trace-event JSON: one complete ("X")
// event per span, one thread row per track, the provenance as metadata.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	events := make([]map[string]any, 0, len(t.spans)+1)
	events = append(events, map[string]any{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
		"args": map[string]any{"name": "perfbench"}})
	for _, s := range t.spans {
		args := map[string]any{"span_id": s.id, "parent_id": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, map[string]any{
			"name": s.name, "cat": "layer", "ph": "X", "pid": 1, "tid": s.track,
			"ts":   float64(s.start.Nanoseconds()) / 1e3,
			"dur":  float64((s.end - s.start).Nanoseconds()) / 1e3,
			"args": args,
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events, "metadata": meta})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
