package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one logical
// operation (a round, a pushed batch, a query) share Op; Parent is the
// span that caused this one (0 for a root). Times are nanoseconds since
// the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// module is the layer a span belongs to: the part of its name before
// the first dot ("core.UpdateBatch" -> "core").
func (s span) module() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children (children may
// overlap one another when they ran concurrently).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfShares sums self time by module and divides by the total self
// time of all spans. Every module in modules gets an entry (0 when it
// recorded nothing); a span of any other module is an error, so a new
// call site cannot silently fall out of the breakdown.
func selfShares(spans []span, modules []string) (map[string]float64, error) {
	self := selfTimes(spans)
	byModule := make(map[string]int64)
	var total int64
	for _, s := range spans {
		byModule[s.module()] += self[s.ID]
		total += self[s.ID]
	}
	known := make(map[string]bool, len(modules))
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		known[m] = true
		out[m] = 0
		if total > 0 {
			out[m] = float64(byModule[m]) / float64(total)
		}
	}
	for m := range byModule {
		if !known[m] {
			return nil, fmt.Errorf("span module %q is not in the traced module list", m)
		}
	}
	return out, nil
}
