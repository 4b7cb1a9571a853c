package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"symbee/internal/core"
	"symbee/internal/link"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileTailRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{100, 0.90, 90, true},
		{99, 0.90, 0, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(ascending(c.n), c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// quartiles agrees with Python's statistics.quantiles(xs, n=4), the rule
// the README's spreads follow; the expectations were printed by Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{1.5, 2.25, 3}, [3]float64{1.5, 2.25, 3}},
		{[]float64{4, 1, 3, 2, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{5, 1, 3, 2, 4, 9, 7, 6, 8, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.3, 0.1, 0.7, 0.2, 0.9, 0.5, 0.4}, [3]float64{0.2, 0.4, 0.7}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v; want %v", c.xs, q1, med, q3, c.want)
				break
			}
		}
	}
}

// Self time subtracts the union of the direct children, clipped to the
// parent, and leaves grandchildren to their own parent.
func TestSelfTimesNestedChildren(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "a.inner", start: 20, end: 30, parent: 1},
		{name: "b", start: 35, end: 60, parent: 0},  // overlaps a
		{name: "c", start: 90, end: 120, parent: 0}, // ends past root
	}
	want := []int64{
		100 - 50 - 10, // children cover [10,60] and [90,100]
		30 - 10,
		10,
		25,
		30,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	self, calls := layerTotals(append(spans, span{name: "b", start: 200, end: 205, parent: -1}))
	if self["b"] != 30 || calls["b"] != 2 {
		t.Errorf("layerTotals b = %d ns over %d calls, want 30 over 2", self["b"], calls["b"])
	}
}

// attributedRatio divides the self time of the layer spans under the
// replay roots by the wrapped calls' total duration.
func TestAttributedRatioSyntheticTrace(t *testing.T) {
	spans := []span{
		{name: "reliable.session", start: 0, end: 400, parent: -1},
		{name: "transport.send", start: 0, end: 100, parent: 0},
		{name: "transport.send", start: 200, end: 300, parent: 0},
		{name: "replay.send", start: 1000, end: 1100, parent: -1},
		{name: layerEncode, start: 1000, end: 1050, parent: 3},
		{name: layerModulate, start: 1050, end: 1080, parent: 3},
		{name: "replay.send", start: 1200, end: 1300, parent: -1},
		{name: layerFrontEnd, start: 1200, end: 1290, parent: 6},
		{name: "replay.poll", start: 1300, end: 1400, parent: -1}, // not under replay.send
	}
	if got, want := attributedRatio(spans, "transport.send", "replay.send"), (50.0+30+90)/200; got != want {
		t.Errorf("attributedRatio = %v, want %v", got, want)
	}
	if got := attributedRatio(spans[:1], "transport.send", "replay.send"); got != 0 {
		t.Errorf("attributedRatio without wrapped spans = %v, want 0", got)
	}
}

// The set-up timer runs every batch of a round in full, reports the
// time of one build over all rounds, and stops at the first failing
// build.
func TestSetupTimer(t *testing.T) {
	builds := 0
	st := &setupTimer{build: func() error { builds++; return nil }}
	for r := 1; r <= 2; r++ {
		if err := st.round(); err != nil || builds != r*setupReps*setupBatch || len(st.per) != r*setupReps {
			t.Fatalf("round %d: err %v, %d builds, %d timings", r, err, builds, len(st.per))
		}
	}
	if v := st.median(); v <= 0 {
		t.Errorf("median %v s, want > 0", v)
	}
	builds = 0
	boom := errors.New("boom")
	st = &setupTimer{build: func() error { builds++; return boom }}
	if err := st.round(); err != boom || builds != 1 {
		t.Errorf("failing build: err %v after %d builds; want boom after 1", err, builds)
	}
}

// rx-frames counts a frame as attempted once its capture was pushed and
// as failed unless it decoded intact exactly once; a frame with other
// content marks the output incorrect.
func TestFailRatioAccountingFrames(t *testing.T) {
	in := &rxInput{
		iq:     make([]complex128, 300),
		starts: []int{0, 100, 200},
		frames: []*core.Frame{{Seq: 1, Data: []byte("a")}, {Seq: 2, Data: []byte("b")}, {Seq: 3, Data: []byte("c")}},
	}
	const lag = 4
	frame := func(sample int, f core.Frame) link.Event {
		return link.Event{StreamEvent: core.StreamEvent{Kind: core.EventFrame, Anchor: sample - lag, Frame: &f}}
	}
	o := newOutcome()
	c := newRxChecker(in, lag)
	c.event(frame(10, *in.frames[0]), o)  // pass 0, capture 0
	c.event(frame(150, *in.frames[1]), o) // pass 0, capture 1
	// capture 2 of pass 0 is missed
	c.event(frame(310, *in.frames[0]), o) // pass 1, capture 0
	c.event(link.Event{StreamEvent: core.StreamEvent{Kind: core.EventDecodeError, Anchor: 400}}, o)
	c.finish(500, o) // pass 1 pushed through capture 1's end
	if o.attempted != 5 || o.failed != 2 || o.wrong != "" {
		t.Fatalf("attempted %d failed %d wrong %q; want 5, 2, none", o.attempted, o.failed, o.wrong)
	}
	if got := o.failRatio(); got != 0.4 {
		t.Errorf("failRatio = %v, want 0.4", got)
	}
	c.event(frame(260, core.Frame{Seq: 9, Data: []byte("z")}), o)
	c.finish(500, o)
	if o.failed != 3 || o.wrong == "" {
		t.Errorf("a frame with other content: failed %d wrong %q; want 3 and a description", o.failed, o.wrong)
	}
	if r, err := buildResult(o, endToEnd, false); err != nil || r.Correct {
		t.Errorf("result of an incorrect run: correct %v, err %v", r.Correct, err)
	}
}

// rx-idle attempts every chunk and fails on any frame out of noise.
func TestFailRatioAccountingIdle(t *testing.T) {
	o := newOutcome()
	c := newRxChecker(&rxInput{iq: make([]complex128, 10)}, 4)
	c.chunks = 8
	c.event(link.Event{StreamEvent: core.StreamEvent{Kind: core.EventLock}}, o)
	c.event(link.Event{StreamEvent: core.StreamEvent{Kind: core.EventFrame, Frame: &core.Frame{}}}, o)
	c.finish(80, o)
	if o.attempted != 8 || o.failed != 1 || o.failRatio() != 0.125 {
		t.Errorf("attempted %d failed %d ratio %v; want 8, 1, 0.125", o.attempted, o.failed, o.failRatio())
	}
	if got := newOutcome().failRatio(); got != 1 {
		t.Errorf("failRatio with nothing attempted = %v, want 1", got)
	}
}

// The result line carries every metric of the table and refuses an
// unmeasured end-to-end metric.
func TestBuildResult(t *testing.T) {
	o := newOutcome()
	o.attempted = 3
	if _, err := buildResult(o, endToEnd, true); err == nil {
		t.Error("missing end-to-end metrics accepted")
	}
	r, err := buildResult(o, perLayer, false)
	if err != nil || !r.Correct || len(r.Metrics) != len(perLayer) {
		t.Fatalf("per-layer result: %v metrics, correct %v, err %v", len(r.Metrics), r.Correct, err)
	}
	var back result
	if err := json.Unmarshal([]byte(r.String()), &back); err != nil || back.Attempted != 3 {
		t.Errorf("result line does not round-trip: %v", err)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics this program
// reports, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d run", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: listed %q (%q), runs %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, listed, table []metricSpec) {
		if len(listed) != len(table) {
			t.Errorf("%s: %d metrics listed, %d reported", kind, len(listed), len(table))
			return
		}
		for i := range listed {
			if listed[i] != table[i] {
				t.Errorf("%s %d: listed %+v, reported %+v", kind, i, listed[i], table[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if !strings.Contains(strings.Join(doc.Command, " "), "perfbench/run.sh") || len(doc.Paths) != 1 || doc.Paths[0] != "perfbench" {
		t.Errorf("command %v / paths %v do not run this directory", doc.Command, doc.Paths)
	}
}

// One short rx run of each kind ends in a correct, complete result line;
// the traced rx-frames run checks its split path against PushIQ.
func TestRxRunsSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "rx-idle", "--seconds", "3", "--trace", "0"},
		{"--workload", "rx-frames", "--seconds", "1", "--trace", "1", "--spans", t.TempDir() + "/spans.csv"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%v: correct %v, %d/%d failed: %s", args, r.Correct, r.Failed, r.Attempted, errOut.String())
		}
	}
}
