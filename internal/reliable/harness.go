package reliable

import (
	"bytes"
	"fmt"
	"time"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/splitmix"
	"symbee/internal/zigbee"
)

// SimConfig parameterizes a SimLink. No field doubles as a sentinel;
// start from DefaultSimConfig and override what the scenario needs.
type SimConfig struct {
	// Params is the receiver parameter set.
	Params core.Params
	// Faults is the channel fault profile (see ProfileSoak/ProfileHarsh
	// for ready-made ones; the zero value is a clean channel).
	Faults channel.FaultConfig
	// Stream selects the streaming receive path (bounded-history
	// link.Stack sessions) instead of the whole-capture batch preset.
	Stream bool
	// Downlink selects the reverse-channel model carrying acks back.
	Downlink DownlinkScheme
	// AckRepeat transmits each committed ack this many times (≥ 1).
	AckRepeat int
	// Metrics optionally shares a registry; nil allocates a private one.
	Metrics *link.Metrics
}

// DefaultSimConfig returns the baseline link: Params20, clean channel,
// batch receive path and a C-Morse ack downlink without repetition.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Params:    core.Params20(),
		Downlink:  DownlinkCMorse,
		AckRepeat: 1,
	}
}

// errAckRepeat rejects non-positive ack repetition counts.
var errAckRepeat = fmt.Errorf("reliable: AckRepeat must be at least 1")

// Validate reports the first structural problem with the config.
func (c SimConfig) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("reliable: %w", err)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("reliable: %w", err)
	}
	if c.AckRepeat < 1 {
		return fmt.Errorf("%w: %d", errAckRepeat, c.AckRepeat)
	}
	if _, err := c.Downlink.downlink(); err != nil {
		return err
	}
	return nil
}

// SimLink is a reliable.Transport that runs entirely over a
// link.Duplex: every forward frame goes through the real SymBee PHY —
// modulator, fault-injected channel, WiFi phase-extraction front end
// and the duplex's uplink decode Stack (batch or streaming preset) —
// and the ARQ receive side, then the resulting cumulative ack rides
// the duplex's layered downlink stack back. Acks cost reverse airtime,
// arrive one downlink-latency late, can be lost on the reverse path
// and can collide with forward frames; the DownlinkIdeal scheme builds
// the stack's explicit no-op occupancy stage for baselines.
type SimLink struct {
	phy     *core.Link
	dec     *core.Decoder
	inj     *channel.FaultInjector
	arq     *Receiver
	duplex  *link.Duplex
	batch   bool
	pad     []float64
	metrics *link.Metrics
	sig     []complex128 // forward waveform, reused across sends
	memo    rxMemo       // batch preset: clean-capture outcomes by payload
}

// NewSimLink builds the simulated link.
func NewSimLink(cfg SimConfig) (*SimLink, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	phy, err := core.NewLink(cfg.Params, 0)
	if err != nil {
		return nil, fmt.Errorf("reliable: %w", err)
	}
	m := cfg.Metrics
	if m == nil {
		m = link.NewMetrics()
	}
	inj, err := channel.NewFaultInjector(cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("reliable: %w", err)
	}
	l := &SimLink{
		phy:     phy,
		dec:     phy.Decoder(),
		inj:     inj,
		arq:     NewReceiver(m),
		batch:   !cfg.Stream,
		metrics: m,
	}
	// The reverse path draws from its own splitmix streams so toggling
	// ack loss or collisions never shifts the forward fault schedule.
	dropCopy := func() bool {
		if l.inj.DropAck() {
			l.metrics.AcksLost.Add(1)
			return true
		}
		return false
	}
	down, err := cfg.Downlink.newDownStack(cfg.AckRepeat, dropCopy,
		splitmix.New(cfg.Faults.Seed, splitmix.CollisionStream))
	if err != nil {
		return nil, err
	}
	var up *link.Stack
	if cfg.Stream {
		up, err = link.NewReliable(l.dec, m)
		if err != nil {
			return nil, fmt.Errorf("reliable: %w", err)
		}
		// The FrameMachine defers its decode until a max-size frame
		// could have ended; zero padding after each capture opens that
		// gate without risking a false lock (zero phases fold to zero,
		// far below the capture threshold). anchorSlack bounds how deep
		// into a capture the preamble anchor can sit.
		l.pad = make([]float64, link.PadHorizon(cfg.Params, anchorSlack))
	} else {
		// Batch path: one whole-capture stack with its own IQ front end,
		// reset per capture — identical semantics to the historical
		// per-capture Decoder.DecodeFrame, without rebuilding the
		// machine each time.
		up, err = link.New(link.Spec{Decoder: l.dec, FrontEnd: true, Batch: true, Metrics: m})
		if err != nil {
			return nil, fmt.Errorf("reliable: %w", err)
		}
	}
	l.duplex, err = link.NewDuplex(up, down)
	if err != nil {
		return nil, fmt.Errorf("reliable: %w", err)
	}
	return l, nil
}

// anchorSlack bounds, in bit periods, how deep into a capture the
// preamble anchor can sit (ZigBee SHR+PHR plus front-end lag).
const anchorSlack = 12

// Metrics returns the link's registry.
func (l *SimLink) Metrics() *link.Metrics { return l.metrics }

// Receiver returns the ARQ receive side (for inspecting expectations
// and duplicate counts in tests).
func (l *SimLink) Receiver() *Receiver { return l.arq }

// Messages drains the fully reassembled messages delivered so far.
func (l *SimLink) Messages() [][]byte { return l.arq.Messages() }

// FaultStats reports the injector's lost/jammed/drifted frame counts.
func (l *SimLink) FaultStats() (lost, jammed, drifted int) { return l.inj.Stats() }

// Duplex returns the layered duplex pipeline the link runs over (for
// per-stage stats and tests).
func (l *SimLink) Duplex() *link.Duplex { return l.duplex }

// ReverseStats reports the downlink's ack ledger: copies sent, airtime
// spent, coalesced, dropped and collided.
func (l *SimLink) ReverseStats() ReverseStats {
	return reverseStats(l.duplex.Down().Ledger())
}

// AckLatency implements Transport.
func (l *SimLink) AckLatency() time.Duration { return l.duplex.Down().Latency() }

// Acks implements Transport.
func (l *SimLink) Acks(now time.Duration) []AckEvent {
	return ackEvents(l.duplex.Down().Arrivals(now))
}

// NextArrival implements Transport.
func (l *SimLink) NextArrival(now time.Duration) (time.Duration, bool) {
	return l.duplex.Down().NextArrival(now)
}

// Send implements Transport: encode (plain or Hamming-coded), resolve
// collisions with any reverse ack on the air, draw the frame's fault
// fate, then — for a frame that survives — modulate, impair, receive,
// deliver to the ARQ side and hand the cumulative ack to the downlink.
// Delivery feedback never returns here — it arrives later through
// Acks, stamped with the downlink's latency.
func (l *SimLink) Send(now time.Duration, f *core.Frame, coded bool) (time.Duration, error) {
	var payload []byte
	var err error
	if coded {
		payload, err = EncodeCodedFrame(f)
	} else {
		payload, err = core.EncodeFrame(f)
	}
	airtime := FrameAirtime(len(f.Data), coded)
	if err != nil {
		return 0, err
	}
	end := now + airtime
	if l.duplex.ForwardCollides(now, end) {
		l.metrics.FramesLost.Add(1)
		return airtime, nil
	}
	// A PPDU that cannot be built fails before the injector draws.
	var ppdu [zigbee.MaxPPDULen]byte
	if _, err := core.AppendPPDU(ppdu[:0], payload); err != nil {
		return airtime, err
	}
	fate := l.inj.Decide()
	if fate.Dropped {
		l.metrics.FramesLost.Add(1)
		return airtime, nil
	}
	frame, err := l.receive(payload, fate)
	if err != nil {
		return airtime, err
	}
	if frame == nil {
		l.metrics.FramesLost.Add(1)
		return airtime, nil
	}
	ack, _ := l.arq.Deliver(frame)
	l.duplex.Down().Generate(end, ack.NextSeq, false)
	return airtime, nil
}

// receive turns a surviving frame's payload into the receiver's
// outcome. In the batch preset the stack is reset per capture, the
// coded trial is stateless and the decoder is fixed, so a clean
// capture's outcome depends only on its payload bytes: it is computed
// once, memoized, and replayed — frame copy and frame-fate counters —
// on every later clean send of the same payload. Jammed and drifted
// captures, and every capture of the streaming preset, run the full
// PHY.
func (l *SimLink) receive(payload []byte, fate channel.Fate) (*core.Frame, error) {
	memoize := l.batch && fate.Clean()
	if memoize {
		if o, ok := l.memo.lookup(payload); ok {
			l.count(o)
			return o.frame, nil
		}
	}
	var err error
	if l.sig, err = l.phy.PayloadToSignalInto(l.sig, payload); err != nil {
		return nil, err
	}
	capture, _ := l.inj.Impair(l.sig, fate)
	if !l.batch {
		return l.receiveStream(capture), nil
	}
	o := l.receiveBatch(capture)
	if memoize {
		l.memo.store(payload, o)
	}
	return o.frame, nil
}

// receiveBatch runs one capture through the batch stack and
// trial-decodes: plain first, then synchronized Hamming-coded on the
// phases the stack's front end just produced. The receiver never
// learns the sender's mode — a coded frame fails the plain version
// check immediately (its first coded nibble parses as version 4),
// which is what makes negotiation-free escalation work.
func (l *SimLink) receiveBatch(capture []complex128) rxOutcome {
	up := l.duplex.Up()
	up.Reset()
	up.PushIQ(capture)
	up.Flush()
	o := tally(up.Drain())
	if o.frame == nil {
		// Any plain failure — including a missing preamble, which
		// emits no event at all — triggers the coded trial, exactly
		// as the historical per-capture DecodeFrame error did.
		o.frame, _ = DecodeCodedPhases(l.dec, up.Phases())
	}
	return o
}

// receiveStream feeds one capture's phases into the bounded-history
// streaming stack, padded so the frame machine's decode gate opens,
// and runs the coded trial only when a locked preamble failed.
func (l *SimLink) receiveStream(capture []complex128) *core.Frame {
	phases := l.phy.Phases(capture)
	up := l.duplex.Up()
	up.PushPhases(phases)
	if n := len(l.pad) - len(phases); n > 0 {
		up.PushPhases(l.pad[:n])
	}
	o := tally(up.Drain())
	if o.frame == nil && o.failed > 0 {
		o.frame, _ = DecodeCodedPhases(l.dec, phases)
	}
	return o.frame
}

// count replays a memoized receive's frame-fate counters, exactly as
// the stack's dispatch counted them the first time.
func (l *SimLink) count(o rxOutcome) {
	l.metrics.Locks.Add(o.locks)
	l.metrics.FramesDecoded.Add(o.decoded)
	l.metrics.FramesFailed.Add(o.failed)
}

// rxOutcome is one capture's receive result: the decoded frame (nil if
// neither trial decoded) and the stack events that fed the frame-fate
// counters.
type rxOutcome struct {
	frame                  *core.Frame
	locks, decoded, failed uint64
}

// tally scans drained stack events for the capture's outcome: the
// decoded frame and the lock, frame and decode-failure counts.
func tally(events []Event) rxOutcome {
	var o rxOutcome
	for _, ev := range events {
		switch ev.Kind {
		case core.EventLock:
			o.locks++
		case core.EventFrame:
			o.frame = ev.Frame
			o.decoded++
		case core.EventDecodeError:
			o.failed++
		}
	}
	return o
}

// rxMemoCap bounds the clean-capture memo; reaching it starts a fresh
// map. A 4 KB transfer sends at most a few hundred distinct payloads.
const rxMemoCap = 4096

// rxMemo maps a clean capture's payload bytes to its receive outcome.
// Frames are copied on the way in and on the way out, so nothing a
// receiver does to a delivered frame reaches a later hit. It is keyed
// on the phase kernel: flipping link.ExactPhase clears it. The map is
// allocated on first use.
type rxMemo struct {
	exact    bool
	outcomes map[string]rxOutcome
}

func (m *rxMemo) lookup(payload []byte) (rxOutcome, bool) {
	if exact := link.ExactPhase(); exact != m.exact {
		m.outcomes, m.exact = nil, exact
	}
	o, ok := m.outcomes[string(payload)]
	o.frame = cloneFrame(o.frame)
	return o, ok
}

func (m *rxMemo) store(payload []byte, o rxOutcome) {
	if m.outcomes == nil || len(m.outcomes) >= rxMemoCap {
		m.outcomes = make(map[string]rxOutcome)
	}
	o.frame = cloneFrame(o.frame)
	m.outcomes[string(payload)] = o
}

// cloneFrame returns a private copy of f; nil stays nil.
func cloneFrame(f *core.Frame) *core.Frame {
	if f == nil {
		return nil
	}
	c := *f
	c.Data = bytes.Clone(f.Data)
	return &c
}

// Event aliases the link stack event consumed by the harness.
type Event = link.Event

// Close flushes the streaming receive path, if any.
func (l *SimLink) Close() {
	l.duplex.Up().Flush()
	l.duplex.Up().Drain()
}

// FrameAirtime is the forward ZigBee airtime of one SymBee frame
// carrying dataBytes of application data, in the given coding mode.
// Both the harness and the overhead baseline use it, so the ≤5%
// comparison is apples to apples.
func FrameAirtime(dataBytes int, coded bool) time.Duration {
	bits := core.HeaderBits + 8*dataBytes + core.CRCBits
	if coded {
		bits = codedLen(bits)
	}
	return time.Duration(zigbee.Airtime(core.PreambleBits+bits) * float64(time.Second))
}

// PlainAirtime is the total forward airtime a plain fire-and-forget
// Messenger spends on a msgLen-byte message: the baseline the ARQ
// overhead criterion is measured against.
func PlainAirtime(msgLen int) time.Duration {
	var at time.Duration
	for msgLen > 0 {
		n := msgLen
		if n > core.MaxDataBytes {
			n = core.MaxDataBytes
		}
		at += FrameAirtime(n, false)
		msgLen -= n
	}
	return at
}

// ProfileSoak is the acceptance fault profile: 10% i.i.d. frame loss,
// a periodic strong-interference burst window, and 5% ack loss.
func ProfileSoak(seed int64) channel.FaultConfig {
	return channel.FaultConfig{
		Seed:       seed,
		FrameLoss:  0.10,
		BurstEvery: 64,
		BurstLen:   6,
		BurstSNRdB: -18,
		AckLoss:    0.05,
	}
}

// ProfileBidir is the bidirectional acceptance profile: 10% loss on the
// forward path and 10% per-copy loss on the reverse path, plus the soak
// profile's interference bursts.
func ProfileBidir(seed int64) channel.FaultConfig {
	cfg := ProfileSoak(seed)
	cfg.AckLoss = 0.10
	return cfg
}

// ProfileHarsh piles CFO drift ramps and heavier loss on top of the
// soak profile — the regime that forces escalation.
func ProfileHarsh(seed int64) channel.FaultConfig {
	return channel.FaultConfig{
		Seed:       seed,
		FrameLoss:  0.15,
		BurstEvery: 48,
		BurstLen:   8,
		BurstSNRdB: -20,
		DriftEvery: 16,
		DriftRate:  4e-7,
		AckLoss:    0.10,
	}
}
