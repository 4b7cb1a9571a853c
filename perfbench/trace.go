package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry. Times are nanoseconds since the recorder's
// origin on the monotonic clock.
type span struct {
	name   string
	start  int64
	end    int64
	parent int   // index of the enclosing span; -1 for a root
	req    int64 // request id: transfer<<32|send index, or chunk index
}

// tracer keeps spans in memory for the whole run; write emits them once
// the run ends, so no I/O lands inside a timed region.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, req int64) int {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: t.now()})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].end = t.now() }

// rename sets span i's name once the call it covers has shown which
// layer did the work (the hunt stages are told apart by their outcome).
func (t *tracer) rename(i int, name string) { t.spans[i].name = name }

// write stores the spans as CSV (index, parent, request, name, start and
// end in ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,parent,request,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Overlapping children are merged, and a
// child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered int64
		cur := s.start // everything before cur is already counted
		for _, k := range kids {
			lo, hi := max(spans[k].start, cur), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTotals sums self time and counts spans per name.
func layerTotals(spans []span) (self map[string]int64, calls map[string]int) {
	st := selfTimes(spans)
	self, calls = map[string]int64{}, map[string]int{}
	for i, s := range spans {
		self[s.name] += st[i]
		calls[s.name]++
	}
	return self, calls
}

// attributedRatio is the layer self time recorded under spans named
// under divided by the total duration of the spans named wrapped: how
// much of the measured wall time the separately timed layer calls
// account for. It reads 1 when the layer calls are exactly the wrapped
// path, less when the wrapped path does work the layer calls miss.
func attributedRatio(spans []span, wrapped, under string) float64 {
	self := selfTimes(spans)
	var attributed, total int64
	for i, s := range spans {
		switch {
		case s.name == wrapped:
			total += s.end - s.start
		case s.parent >= 0 && spans[s.parent].name == under:
			attributed += self[i]
		}
	}
	return ratio(float64(attributed), float64(total))
}
