package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricSpec names one reported metric. The two tables below are the
// benchmark's single list of metrics: the result line, the repeat mode
// and the consistency test against BENCHMARK.json all iterate them.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics of an untraced run. Bound is the share of
// the parent commit's median by which a metric may worsen before a change
// counts as a regression. Every bound sits at 0.25: on the 2-vCPU shared
// host the baseline comes from, the same build's medians drift by 10–40%
// between sets of runs minutes apart (README.md, Baseline), so a tighter
// bound would flag the machine rather than the change.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"realtime_x", "x", "higher", 0.25},
	{"step_us_p90", "us", "lower", 0.25},
	{"step_us_p99", "us", "lower", 0.25},
	{"alloc_mb_per_air_s", "MB/s", "lower", 0.25},
}

// Layer names, shared by the span recorder and the per-layer table.
const (
	layerEncode    = "core.encode"
	layerModulate  = "zigbee.modulate"
	layerFault     = "channel.fault"
	layerFrontEnd  = "wifi.frontend"
	layerHuntIdle  = "link.hunt_idle"
	layerHuntFrame = "link.hunt_frame"
	layerStack     = "link.stack"
	layerCoded     = "reliable.coded"
	layerReceiver  = "reliable.receiver"
	layerDownlink  = "link.downlink"
	layerSession   = "reliable.session"
	layerTrace     = "trace"
)

// layers lists, bottom-up along the forward pipeline, every layer whose
// self time is attributed; each reports a <layer>.share metric.
var layers = []string{
	layerEncode, layerModulate, layerFault, layerFrontEnd, layerHuntIdle,
	layerHuntFrame, layerStack, layerCoded, layerReceiver, layerDownlink,
	layerSession,
}

// perLayer lists the metrics of a traced run. A layer the workload does
// not run reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	specs := []metricSpec{
		{layerEncode + ".ns_per_frame", "ns", "lower", 0},
		{layerModulate + ".ns_per_sample", "ns", "lower", 0},
		{layerModulate + ".bytes_per_frame", "B", "lower", 0},
		{layerModulate + ".allocs_per_frame", "count", "lower", 0},
		{layerFault + ".ns_per_frame", "ns", "lower", 0},
		{layerFault + ".dropped_ratio", "ratio", "lower", 0},
		{layerFrontEnd + ".ns_per_sample", "ns", "lower", 0},
		{layerFrontEnd + ".bytes_per_sample", "B", "lower", 0},
		{layerHuntIdle + ".ns_per_phase", "ns", "lower", 0},
		{layerHuntIdle + ".phase_share", "ratio", "higher", 0},
		{layerHuntFrame + ".ns_per_phase", "ns", "lower", 0},
		{layerHuntFrame + ".locks", "count", "lower", 0},
		{layerHuntFrame + ".frames", "count", "higher", 0},
		{layerHuntFrame + ".decode_errors", "count", "lower", 0},
		{layerHuntFrame + ".lock_yield", "ratio", "higher", 0},
		{layerStack + ".ns_per_phase", "ns", "lower", 0},
		{layerCoded + ".calls", "count", "lower", 0},
		{layerCoded + ".ns_per_call", "ns", "lower", 0},
		{layerCoded + ".hit_ratio", "ratio", "higher", 0},
		{layerReceiver + ".ns_per_frame", "ns", "lower", 0},
		{layerReceiver + ".dup_drops", "count", "lower", 0},
		{layerDownlink + ".ns_per_call", "ns", "lower", 0},
		{layerDownlink + ".acks_sent", "count", "lower", 0},
		{layerDownlink + ".acks_dropped", "count", "lower", 0},
		{layerDownlink + ".collisions", "count", "lower", 0},
		{layerSession + ".self_ns_per_send", "ns", "lower", 0},
		{layerSession + ".sends", "count", "lower", 0},
		{layerSession + ".retransmits", "count", "lower", 0},
		{layerSession + ".timeouts", "count", "lower", 0},
		{layerSession + ".escalations", "count", "lower", 0},
		{layerSession + ".useful_ratio", "ratio", "higher", 0},
		{layerTrace + ".attributed_ratio", "ratio", "higher", 0},
		{layerTrace + ".overhead_ratio", "ratio", "higher", 0},
	}
	for _, l := range layers {
		specs = append(specs, metricSpec{l + ".share", "ratio", "lower", 0})
	}
	return specs
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload run hands back: the operation accounting,
// any correctness violation, and the measured values by metric name.
type outcome struct {
	attempted int
	failed    int
	// wrong describes the first output found incorrect; empty when every
	// checked output matched.
	wrong  string
	values map[string]float64
	// notes are sample counts and spreads for the standard-error summary.
	notes []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail records an incorrect output, keeping the first description.
func (o *outcome) fail(format string, args ...any) {
	if o.wrong == "" {
		o.wrong = fmt.Sprintf(format, args...)
	}
}

// failRatio is failed operations over attempted ones.
func (o *outcome) failRatio() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// buildResult assembles the result line from the outcome, reporting
// every metric of specs. With required set (the end-to-end table) a
// metric the run did not measure is an error; per-layer metrics of
// layers the workload does not run read 0.
func buildResult(o *outcome, specs []metricSpec, required bool) (result, error) {
	r := result{
		Correct:   o.wrong == "" && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := o.values[s.Name]
		if !ok && required {
			return r, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return r, nil
}

func (r result) String() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	return string(b)
}

// minTail is how many samples must lie beyond a percentile for it to be
// reported.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of the ascending samples
// by the nearest-rank rule. ok is false unless at least minTail samples
// lie strictly beyond the chosen rank, so a tail percentile is never
// read off a handful of points.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if n-1-rank < minTail {
		return 0, false
	}
	return sorted[rank], true
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4), so
// spreads computed here match those computed with Python from the same
// values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // outside [0, 4] past the ends: Python extrapolates too
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// ratio divides, reading 0 when there is nothing to divide by (a layer
// the workload never ran).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const (
	// setupReps is how many set-up timings a run takes at each end of
	// its measured loop; setup_s is the median of all of them.
	setupReps = 51
	// setupBatch is how many builds one set-up timing covers, so that a
	// timing spans milliseconds rather than a few clock ticks.
	setupBatch = 64
)

// setupTimer times a workload's set-up: the time of one build, over
// batches of setupBatch builds. A run takes one round of timings before
// it synthesizes any input and one after its measured loop, so setup_s
// samples the shared host at both ends of the run rather than over one
// second. The collector is paused inside each batch and runs between
// batches, so the timings do not depend on how much input the run holds.
type setupTimer struct {
	build func() error
	per   []float64
}

// round takes setupReps timings.
func (t *setupTimer) round() error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		for k := 0; k < setupBatch; k++ {
			if err := t.build(); err != nil {
				return err
			}
		}
		t.per = append(t.per, time.Since(t0).Seconds()/setupBatch)
	}
	return nil
}

// median is setup_s: the median of every timing taken.
func (t *setupTimer) median() float64 {
	_, med, _ := quartiles(t.per)
	return med
}
