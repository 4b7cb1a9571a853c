package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/dsp"
	"symbee/internal/link"
	"symbee/internal/stream"
	"symbee/internal/wifi"
)

const (
	// chunkSize is the PushIQ chunk: 204.8 µs of air at 20 Msps.
	chunkSize = 4096
	// replayFrames is how many frame captures one rx-frames replay
	// buffer holds: the fragments of one message as the sender cuts it,
	// full MaxDataBytes fragments with FlagMore and a shorter tail. The
	// buffer loops for as long as the run lasts.
	replayFrames = 20
	// replaySNRdB is the frame captures' signal-to-noise ratio.
	replaySNRdB = 10
	// capturePad is the noise, in samples, on each side of a frame.
	capturePad = 4000
	// noiseSamples is the length of each of the two rx-idle noise bases.
	noiseSamples = 1 << 19
	// allocChunks is the fixed stretch of air alloc_mb_per_air_s is read
	// over, from the first chunk on: 13.4 s of air. The idle receiver
	// allocates next to nothing per chunk; its one sizeable allocation
	// grows the frame machine's history once, at the first long false
	// lock, a few seconds of air into the run. A stretch fixed in air
	// rather than in wall time holds that growth on every seed and keeps
	// the figure independent of the receiver's speed.
	allocChunks = 1 << 16
)

// rxInput is one replay buffer. For rx-frames, starts[k] is where the
// capture carrying frames[k] begins; the capture ends where the next
// begins (the last one at the end of iq). For rx-idle, mix is a second
// noise base that replay adds at a random offset to every chunk of iq.
type rxInput struct {
	iq     []complex128
	starts []int
	frames []*core.Frame
	mix    []complex128
	rng    *rand.Rand // draws the mix offsets
}

// synthFrames builds the rx-frames buffer: back-to-back captures of the
// fragments of one random message, from a random first sequence number,
// through a 10 dB channel with the default carrier offset, as a deployed
// receiver would see a busy sender.
func synthFrames(p core.Params, seed int64) (*rxInput, error) {
	rng := rand.New(rand.NewSource(seed))
	l, err := core.NewLink(p, wifi.CanonicalCompensation)
	if err != nil {
		return nil, err
	}
	m, err := channel.NewMedium(channel.Config{
		SampleRate: p.SampleRate,
		SNRdB:      replaySNRdB,
		FreqOffset: channel.DefaultFreqOffset,
		Pad:        capturePad,
	}, rng)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, replayFrames*core.MaxDataBytes-rng.Intn(core.MaxDataBytes))
	rng.Read(msg)
	ms := core.NewMessenger(nil)
	ms.SetSeq(byte(rng.Intn(256)))
	frames, err := ms.Fragment(msg)
	if err != nil {
		return nil, err
	}
	in := &rxInput{}
	for k, f := range frames {
		sig, err := l.TransmitFrame(f)
		if err != nil {
			return nil, fmt.Errorf("synthesize frame %d: %w", k, err)
		}
		in.starts = append(in.starts, len(in.iq))
		in.frames = append(in.frames, f)
		in.iq = append(in.iq, m.Transmit(sig)...)
	}
	return in, nil
}

// synthNoise builds the rx-idle input: complex Gaussian noise only. A
// looped buffer would replay the same few false preamble locks (or none)
// every pass, making a run's hunt work depend on its seed; summing two
// bases at a random relative offset per chunk gives noise that does not
// repeat, so every run meets false locks at the receiver's own rate.
func synthNoise(seed int64) *rxInput {
	rng := rand.New(rand.NewSource(seed))
	base := func() []complex128 {
		x := make([]complex128, noiseSamples)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return x
	}
	return &rxInput{iq: base(), mix: base(), rng: rng}
}

// rxChecker checks receiver events against the transmitted frames and
// does the operation accounting. An operation is a transmitted frame on
// rx-frames and a chunk of noise on rx-idle.
type rxChecker struct {
	in     *rxInput
	lag    int
	intact int   // frames decoded intact
	last   int64 // instance of the last intact frame; frames arrive in stream order
	wrong  int   // frames decoded at a capture with other content, or twice
	noise  int   // frames decoded from noise (rx-idle)
	chunks int
}

func newRxChecker(in *rxInput, lag int) *rxChecker {
	return &rxChecker{in: in, lag: lag, last: -1}
}

// event checks one receiver event. A frame decodes at the capture that
// holds its anchor: instance loop·K + k for the k-th capture of the
// loop-th pass over the buffer.
func (c *rxChecker) event(ev link.Event, o *outcome) {
	if ev.Kind != core.EventFrame {
		return
	}
	if len(c.in.frames) == 0 {
		c.noise++
		return
	}
	sample := int64(ev.Anchor + c.lag)
	n := int64(len(c.in.iq))
	off := int(sample % n)
	k := sort.SearchInts(c.in.starts, off+1) - 1
	inst := sample/n*int64(len(c.in.frames)) + int64(k)
	want := c.in.frames[k]
	got := ev.Frame
	if got.Seq != want.Seq || got.Flags != want.Flags || !bytes.Equal(got.Data, want.Data) || inst <= c.last {
		c.wrong++
		o.fail("frame at sample %d decoded as seq %d %x; capture %d carries seq %d %x",
			sample, got.Seq, got.Data, k, want.Seq, want.Data)
		return
	}
	c.intact++
	c.last = inst
}

// finish closes the accounting once pushed samples were fed. On
// rx-frames a frame is attempted once its whole capture was pushed and
// fails unless it decoded intact; on rx-idle every chunk is attempted
// and every frame out of noise is a failure.
func (c *rxChecker) finish(pushed int64, o *outcome) {
	if len(c.in.frames) == 0 {
		o.attempted = c.chunks
		o.failed = c.noise
		return
	}
	n := int64(len(c.in.iq))
	attempted := pushed / n * int64(len(c.in.frames))
	rem := int(pushed % n)
	for k := range c.in.starts {
		end := len(c.in.iq)
		if k+1 < len(c.in.starts) {
			end = c.in.starts[k+1]
		}
		if end <= rem {
			attempted++
		}
	}
	intact := c.intact
	if c.last >= attempted {
		intact-- // the partly pushed capture decoded early; only one can be
	}
	o.attempted = int(attempted)
	o.failed = int(attempted) - intact + c.wrong
}

// replay walks the looped buffer chunk by chunk. Every chunk is written
// into one reused buffer before the receiver sees it, as a radio driver's
// ring hands samples over: a copy of the frame buffer's next slice, or for
// rx-idle that slice plus the noise mix at a random offset.
type replay struct {
	in  *rxInput
	pos int
	out []complex128
}

func newReplay(in *rxInput) *replay {
	return &replay{in: in, out: make([]complex128, chunkSize)}
}

func (r *replay) next() []complex128 {
	iq := r.in.iq
	end := min(r.pos+chunkSize, len(iq))
	c := iq[r.pos:end]
	r.pos = end % len(iq)
	out := r.out[:len(c)]
	if r.in.mix == nil {
		copy(out, c)
		return out
	}
	off := r.in.rng.Intn(len(r.in.mix) - len(c) + 1)
	for i, x := range c {
		out[i] = x + r.in.mix[off+i]
	}
	return out
}

// runRx times the receiver's set-up, synthesizes the buffer and
// measures one streaming receiver on it. Untraced, it times each PushIQ
// and then the set-up once more; traced, it splits every chunk into the
// front end and the phase-fed stack, checked against an untraced
// receiver fed the same chunks.
func runRx(synth func() (*rxInput, error), seconds time.Duration, traced bool, spansPath string) (*outcome, error) {
	p := core.Params20()
	o := newOutcome()
	var rcv *stream.Receiver
	setup := &setupTimer{build: func() (err error) {
		rcv, err = stream.NewReceiver(p, wifi.CanonicalCompensation, nil)
		return err
	}}
	if err := setup.round(); err != nil {
		return nil, err
	}
	in, err := synth()
	if err != nil {
		return nil, err
	}
	if traced {
		return o, traceRx(p, in, seconds, rcv, o, spansPath)
	}

	chk := newRxChecker(in, p.Lag)
	rp := newReplay(in)
	// The latency samples never grow within the allocation stretch, so
	// the heap figure is the receiver's own.
	lat := make([]float64, 0, max(allocChunks, int(seconds.Seconds()*p.SampleRate*4/chunkSize)))
	var pushed, allocPushed int64
	// busy is the receiver's time, the sum of the PushIQ calls, so chunk
	// synthesis and checking stay out of realtime_x.
	var busy float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for now := start; now.Sub(start) < seconds; {
		if chk.chunks == allocChunks {
			runtime.ReadMemStats(&ms1)
			allocPushed = pushed
		}
		c := rp.next()
		t0 := time.Now()
		if err := rcv.PushIQ(c); err != nil {
			return nil, err
		}
		now = time.Now()
		busy += now.Sub(t0).Seconds()
		lat = append(lat, float64(now.Sub(t0).Nanoseconds())/1e3)
		for _, ev := range rcv.Drain() {
			chk.event(ev, o)
		}
		pushed += int64(len(c))
		chk.chunks++
	}
	if allocPushed == 0 {
		runtime.ReadMemStats(&ms1)
		allocPushed = pushed
	}
	rcv.Flush()
	for _, ev := range rcv.Drain() {
		chk.event(ev, o)
	}
	chk.finish(pushed, o)
	if err := setup.round(); err != nil {
		return nil, err
	}

	o.values["setup_s"] = setup.median()
	o.values["alloc_mb_per_air_s"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / (float64(allocPushed) / p.SampleRate)
	return o, report(o, lat, float64(pushed)/p.SampleRate/busy)
}

// report sets realtime_x, the run's seconds of air per second of
// measured wall time, and the step latency tail from the per-step times.
func report(o *outcome, lat []float64, realtime float64) error {
	o.values["realtime_x"] = realtime
	o.notes = append(o.notes, fmt.Sprintf("%d steps timed", len(lat)))
	sort.Float64s(lat)
	for _, q := range []struct {
		name string
		q    float64
	}{{"step_us_p90", 0.90}, {"step_us_p99", 0.99}} {
		v, ok := percentile(lat, q.q)
		if !ok {
			return fmt.Errorf("%s: %d steps leave fewer than %d beyond it; run longer", q.name, len(lat), minTail)
		}
		o.values[q.name] = v
	}
	return nil
}

// traceRx is the traced rx run. Per chunk it records the reference
// PushIQ (rx.pushiq) and, under one rx.chunk span, the front end
// (dsp.PhaseDiffStreamer.Process) and the phase-fed stack's PushPhases.
// The stack call is attributed to link.hunt_idle when the machine hunts
// before and after and emits nothing, else to link.hunt_frame.
func traceRx(p core.Params, in *rxInput, seconds time.Duration, ref *stream.Receiver, o *outcome, spansPath string) error {
	dec, err := core.NewDecoder(p, wifi.CanonicalCompensation)
	if err != nil {
		return err
	}
	stack, err := link.New(link.Spec{Decoder: dec})
	if err != nil {
		return err
	}
	fe, err := dsp.NewPhaseDiffStreamer(p.Lag)
	if err != nil {
		return err
	}
	tr := newTracer()
	chk := newRxChecker(in, p.Lag)
	rp := newReplay(in)
	phases := make([]float64, 0, chunkSize)
	var refEvents []link.Event
	var pushed, idlePhases, framePhases int64
	var counts eventCounts
	start := time.Now()
	for req := int64(0); time.Since(start) < seconds; req++ {
		c := rp.next()
		s := tr.begin("rx.pushiq", -1, req)
		if err := ref.PushIQ(c); err != nil {
			return err
		}
		tr.end(s)
		refEvents = append(refEvents[:0], ref.Drain()...)

		root := tr.begin("rx.chunk", -1, req)
		s = tr.begin(layerFrontEnd, root, req)
		phases = fe.Process(c, phases[:0])
		tr.end(s)
		before := stack.State()
		s = tr.begin(layerHuntIdle, root, req)
		if err := stack.PushPhases(phases); err != nil {
			return err
		}
		tr.end(s)
		events := stack.Drain()
		if before == core.StateHunting && stack.State() == core.StateHunting && len(events) == 0 {
			idlePhases += int64(len(phases))
		} else {
			tr.rename(s, layerHuntFrame)
			framePhases += int64(len(phases))
		}
		tr.end(root)

		if !sameEvents(events, refEvents) {
			o.fail("chunk %d: traced stack emitted %v, PushIQ emitted %v", req, events, refEvents)
		}
		counts.add(events)
		for _, ev := range events {
			chk.event(ev, o)
		}
		pushed += int64(len(c))
		chk.chunks++
	}
	ref.Flush()
	if err := stack.Flush(); err != nil {
		return err
	}
	refEvents = append(refEvents[:0], ref.Drain()...)
	events := stack.Drain()
	if !sameEvents(events, refEvents) {
		o.fail("flush: traced stack emitted %v, PushIQ emitted %v", events, refEvents)
	}
	counts.add(events)
	for _, ev := range events {
		chk.event(ev, o)
	}
	chk.finish(pushed, o)

	self, _ := layerTotals(tr.spans)
	var wall, reference float64
	for _, s := range tr.spans {
		switch s.name {
		case "rx.chunk":
			wall += float64(s.end - s.start)
		case "rx.pushiq":
			reference += float64(s.end - s.start)
		}
	}
	v := o.values
	v[layerFrontEnd+".ns_per_sample"] = ratio(float64(self[layerFrontEnd]), float64(pushed))
	feBytes, err := frontEndBytesPerSample(p.Lag, in)
	if err != nil {
		return err
	}
	v[layerFrontEnd+".bytes_per_sample"] = feBytes
	v[layerHuntIdle+".ns_per_phase"] = ratio(float64(self[layerHuntIdle]), float64(idlePhases))
	v[layerHuntIdle+".phase_share"] = ratio(float64(idlePhases), float64(idlePhases+framePhases))
	v[layerHuntFrame+".ns_per_phase"] = ratio(float64(self[layerHuntFrame]), float64(framePhases))
	counts.report(v)
	for _, l := range layers {
		v[l+".share"] = ratio(float64(self[l]), wall)
	}
	v[layerTrace+".attributed_ratio"] = attributedRatio(tr.spans, "rx.pushiq", "rx.chunk")
	v[layerTrace+".overhead_ratio"] = ratio(reference, wall)
	if spansPath != "" {
		return tr.write(spansPath)
	}
	return nil
}

// eventCounts tallies the frame machine's outcomes for link.hunt_frame.
type eventCounts struct{ locks, frames, decodeErrors int }

func (c *eventCounts) add(events []link.Event) {
	for _, ev := range events {
		switch ev.Kind {
		case core.EventLock:
			c.locks++
		case core.EventFrame:
			c.frames++
		case core.EventDecodeError:
			c.decodeErrors++
		}
	}
}

func (c *eventCounts) report(v map[string]float64) {
	v[layerHuntFrame+".locks"] = float64(c.locks)
	v[layerHuntFrame+".frames"] = float64(c.frames)
	v[layerHuntFrame+".decode_errors"] = float64(c.decodeErrors)
	v[layerHuntFrame+".lock_yield"] = ratio(float64(c.frames), float64(c.locks))
}

// sameEvents reports whether two event lists match field by field
// (frames by content, errors by message).
func sameEvents(a, b []link.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Stream != y.Stream || x.Kind != y.Kind || x.Anchor != y.Anchor || x.End != y.End {
			return false
		}
		if (x.Frame == nil) != (y.Frame == nil) || (x.Err == nil) != (y.Err == nil) {
			return false
		}
		if x.Frame != nil && (x.Frame.Seq != y.Frame.Seq || x.Frame.Flags != y.Frame.Flags || !bytes.Equal(x.Frame.Data, y.Frame.Data)) {
			return false
		}
		if x.Err != nil && x.Err.Error() != y.Err.Error() {
			return false
		}
	}
	return true
}

// frontEndBytesPerSample is one allocation pass of the streaming front
// end over the whole buffer, measured apart from the timed run so that
// reading the heap statistics does not distort the timings.
func frontEndBytesPerSample(lag int, in *rxInput) (float64, error) {
	fe, err := dsp.NewPhaseDiffStreamer(lag)
	if err != nil {
		return 0, err
	}
	out := make([]float64, 0, chunkSize)
	rp := newReplay(in)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for n := 0; n < len(in.iq); n += chunkSize {
		out = fe.Process(rp.next(), out[:0])
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(len(in.iq)), nil
}
