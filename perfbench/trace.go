package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spatialsim/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (or grafted from the server's own ?trace=1 tree). Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so a parent's ID can be handed to children that
// finish (and are recorded) before the parent.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// record stores a finished span under a reserved ID (0 reserves one).
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: t.at(start), End: t.at(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// graft attaches the server's ?trace=1 tree under a client span. The two
// clocks are not synchronized, so the server root is centred in the client
// interval (equal request and response transit); only durations and the
// nesting inside the server tree are exact.
func (t *tracer) graft(parent, req int64, clientStart, clientEnd time.Time, sj *obs.SpanJSON) {
	if t == nil || sj == nil {
		return
	}
	rootDur := time.Duration(sj.DurationMicros) * time.Microsecond
	origin := clientStart.Add((clientEnd.Sub(clientStart) - rootDur) / 2)
	var walk func(parent int64, s *obs.SpanJSON)
	walk = func(parent int64, s *obs.SpanJSON) {
		start := origin.Add(time.Duration(s.OffsetMicros) * time.Microsecond)
		end := start.Add(time.Duration(s.DurationMicros) * time.Microsecond)
		id := t.record(0, parent, req, "server."+s.Stage, start, end)
		for _, c := range s.Children {
			walk(id, c)
		}
	}
	walk(parent, sj)
}

// durations returns the durations (µs) of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration minus
// the part of its interval its children cover (µs).
func (t *tracer) selfTimes(name string) []float64 {
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()-covered(s, kids[s.ID]))/1e3)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
