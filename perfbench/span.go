package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer of the program. The benchmark
// records spans around its own calls (and around the task executor it
// hands the fabric agents); nothing inside the program is instrumented.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    int64  `json:"req"` // request or point id; -1 when none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: Begin returns 0 and End does nothing.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id, which End and child spans take.
func (t *Tracer) Begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: start, End: -1})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// Add records a span that has already ended, such as a request timed
// from its due time, and returns its id.
func (t *Tracer) Add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CheckNesting verifies that every span is closed, that every parent
// exists and was opened before its child, and that every child lies
// within its parent's interval.
func CheckNesting(spans []Span) error {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) is not closed or ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] escapes parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// children indexes spans by parent id, each list sorted by start time.
func children(spans []Span) map[int][]Span {
	kids := make(map[int][]Span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, k := range kids {
		sort.Slice(k, func(i, j int) bool { return k[i].Start < k[j].Start })
	}
	return kids
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Concurrent
// children are counted once, so no self time is negative.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := children(spans)
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		covered := int64(0)
		curS, curE := int64(0), int64(-1)
		for _, c := range kids[s.ID] {
			cs, ce := max(c.Start, s.Start), min(c.End, s.End)
			if ce <= cs {
				continue
			}
			if cs > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = cs, ce
			} else if ce > curE {
				curE = ce
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// BlockingPath splits the root span's duration along its blocking
// (critical) path and returns the time each span name holds on it. From
// the root's end it walks backwards: the child that finished last before
// the cursor blocked the parent up to that point, the gap after it is the
// parent's own time, and the walk recurses into that child and continues
// from the child's start. Children running concurrently with the chosen
// one are off the path. The returned times sum to the root's duration.
func BlockingPath(spans []Span, root int) map[string]time.Duration {
	kids := children(spans)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := make(map[string]time.Duration)
	var walk func(s Span, lo, hi int64)
	walk = func(s Span, lo, hi int64) {
		cursor := hi
		ks := kids[s.ID]
		for cursor > lo {
			// The child that finished last at or before the cursor.
			best := -1
			for i, c := range ks {
				if c.End <= cursor && c.End > lo && (best < 0 || c.End > ks[best].End) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			c := ks[best]
			out[s.Name] += time.Duration(cursor - c.End)
			cs := max(c.Start, lo)
			walk(c, cs, c.End)
			cursor = cs
		}
		out[s.Name] += time.Duration(cursor - lo)
	}
	r := byID[root]
	walk(r, r.Start, r.End)
	return out
}
