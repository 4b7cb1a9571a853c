package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/reliable"
)

const (
	// arqMessageBytes is the message one ARQ transfer delivers.
	arqMessageBytes = 4096
	// arqAckRepeat is how many copies of each ack the downlink sends.
	arqAckRepeat = 2
	// seedStride spaces the transfer seeds of runs with adjacent seeds,
	// so no two runs share a transfer: run seed s uses s·seedStride+i.
	seedStride = 1000
	// allocFrames is how many recorded frames one allocation pass
	// modulates and runs through the front end.
	allocFrames = 16
)

// transferSeed is the fault, jitter and message seed of transfer i.
func transferSeed(seed int64, i int) int64 { return seed*seedStride + int64(i) }

// simConfig is the link of one transfer: the default receive preset
// over the bidirectional-soak fault profile, with the C-Morse downlink
// sending every ack twice.
func simConfig(fseed int64) reliable.SimConfig {
	cfg := reliable.DefaultSimConfig()
	cfg.Faults = reliable.ProfileBidir(fseed)
	cfg.Downlink = reliable.DownlinkCMorse
	cfg.AckRepeat = arqAckRepeat
	return cfg
}

// message is transfer fseed's payload.
func message(fseed int64) []byte {
	msg := make([]byte, arqMessageBytes)
	rand.New(rand.NewSource(fseed)).Read(msg)
	return msg
}

// transfer is one set-up ARQ transfer: a fresh SimLink and a Session
// sending over it, possibly through a wrapping Transport.
type transfer struct {
	link *reliable.SimLink
	sess *reliable.Session
}

// newTransfer builds transfer fseed's link and session; wrap, when not
// nil, interposes on the session's Transport.
func newTransfer(fseed int64, wrap func(reliable.Transport) reliable.Transport) (*transfer, error) {
	l, err := reliable.NewSimLink(simConfig(fseed))
	if err != nil {
		return nil, err
	}
	var tx reliable.Transport = l
	if wrap != nil {
		tx = wrap(l)
	}
	scfg := reliable.DefaultConfig()
	scfg.Seed = fseed
	s, err := reliable.NewSession(tx, scfg)
	if err != nil {
		return nil, err
	}
	return &transfer{link: l, sess: s}, nil
}

// send runs the transfer and checks the delivery: the far end must have
// reassembled exactly the one message, byte for byte. It returns the
// report and the delivered messages, and counts the operation, unless
// ctx ended the transfer because the run's time was spent. done, when
// not nil, runs as soon as the session returns.
func (t *transfer) send(ctx context.Context, msg []byte, o *outcome, done func()) (*reliable.Report, [][]byte) {
	rep, err := t.sess.Send(ctx, msg)
	if done != nil {
		done()
	}
	msgs := t.link.Messages()
	t.link.Close()
	if errors.Is(err, context.DeadlineExceeded) {
		return rep, msgs
	}
	o.attempted++
	switch {
	case err != nil:
		o.failed++
	case len(msgs) != 1 || !bytes.Equal(msgs[0], msg):
		o.failed++
		o.fail("transfer delivered %d messages, not the one sent", len(msgs))
	}
	return rep, msgs
}

// sendTimer times each Transport.Send: one forward frame through the
// PHY, the ARQ receive side and ack generation.
type sendTimer struct {
	reliable.Transport
	us []float64
}

func (t *sendTimer) Send(now time.Duration, f *core.Frame, coded bool) (time.Duration, error) {
	t0 := time.Now()
	at, err := t.Transport.Send(now, f, coded)
	t.us = append(t.us, float64(time.Since(t0).Nanoseconds())/1e3)
	return at, err
}

// runArq runs transfers until the run's time is spent. The first
// transfer always completes; a later one still running at the deadline is
// cut there, its sends measured but the transfer not counted.
func runArq(seed int64, seconds time.Duration, traced bool, spansPath string) (*outcome, error) {
	o := newOutcome()
	if traced {
		return o, traceArq(seed, seconds, o, spansPath)
	}
	setup := &setupTimer{build: func() error {
		t, err := newTransfer(transferSeed(seed, 0), nil)
		if err != nil {
			return err
		}
		t.link.Close()
		return nil
	}}
	if err := setup.round(); err != nil {
		return nil, err
	}
	start := time.Now()
	deadline, cancel := context.WithDeadline(context.Background(), start.Add(seconds))
	defer cancel()
	timer := &sendTimer{}
	var air, wall time.Duration
	var allocated uint64
	var ms0, ms1 runtime.MemStats
	for i := 0; i == 0 || deadline.Err() == nil; i++ {
		ctx := deadline
		if i == 0 {
			ctx = context.Background()
		}
		fseed := transferSeed(seed, i)
		msg := message(fseed)
		t, err := newTransfer(fseed, func(tx reliable.Transport) reliable.Transport {
			timer.Transport = tx
			return timer
		})
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		rep, _ := t.send(ctx, msg, o, func() { wall += time.Since(t0) })
		runtime.ReadMemStats(&ms1)
		allocated += ms1.TotalAlloc - ms0.TotalAlloc
		air += rep.Airtime
	}
	if err := setup.round(); err != nil {
		return nil, err
	}
	o.values["setup_s"] = setup.median()
	o.values["alloc_mb_per_air_s"] = float64(allocated) / 1e6 / air.Seconds()
	return o, report(o, timer.us, air.Seconds()/wall.Seconds())
}

// opKind is a recorded Transport call.
type opKind uint8

const (
	opSend opKind = iota
	opAcks
	opNextArrival
)

// transportOp is one recorded Transport call with its arguments.
type transportOp struct {
	kind  opKind
	now   time.Duration
	frame *core.Frame
	coded bool
	req   int64
}

// tracedTransport wraps the SimLink through the public Transport
// interface: it times every call the Session makes under the session's
// span and records the calls for the layer replay.
type tracedTransport struct {
	reliable.Transport
	tr     *tracer
	parent int
	req    int64 // transfer<<32; the send index fills the low bits
	sends  int64
	ops    []transportOp
}

func (t *tracedTransport) Send(now time.Duration, f *core.Frame, coded bool) (time.Duration, error) {
	req := t.req | t.sends
	t.sends++
	s := t.tr.begin("transport.send", t.parent, req)
	at, err := t.Transport.Send(now, f, coded)
	t.tr.end(s)
	t.ops = append(t.ops, transportOp{kind: opSend, now: now, frame: f, coded: coded, req: req})
	return at, err
}

func (t *tracedTransport) Acks(now time.Duration) []reliable.AckEvent {
	s := t.tr.begin(layerDownlink, t.parent, t.req|t.sends)
	evs := t.Transport.Acks(now)
	t.tr.end(s)
	t.ops = append(t.ops, transportOp{kind: opAcks, now: now})
	return evs
}

func (t *tracedTransport) NextArrival(now time.Duration) (time.Duration, bool) {
	s := t.tr.begin(layerDownlink, t.parent, t.req|t.sends)
	at, ok := t.Transport.NextArrival(now)
	t.tr.end(s)
	t.ops = append(t.ops, transportOp{kind: opNextArrival, now: now})
	return at, ok
}

// arqCounts accumulates the work counts of the traced run.
type arqCounts struct {
	modSamples, feSamples, stackPhases int64
	idlePhases, framePhases            int64
	applies, drops                     int
	events                             eventCounts
	codedCalls, codedHits              int
	dupDrops                           int
	acksSent, acksDropped, collisions  int
	sends, retransmits, timeouts, escs int
	// tracedWall is the wall time of every traced pass, the layer
	// shares' denominator; pairPlain and pairTraced cover only transfers
	// whose two passes both completed, for overhead_ratio.
	tracedWall, pairPlain, pairTraced float64
}

// traceArq is the traced arq-bidir run. Each transfer runs twice on the
// same seed, once plain and once through tracedTransport, alternating
// which goes first; the two must report identically. Only the traced
// pass counts the operation. The recorded calls are then replayed
// through the layer entries SimLink.Send is built from, and the replay
// must end in the same state as the real link. As in runArq, the first
// transfer always completes and a later one running at the deadline is
// cut there; a cut transfer is neither compared nor counted, but its
// traced calls are replayed.
func traceArq(seed int64, seconds time.Duration, o *outcome, spansPath string) error {
	tr := newTracer()
	var c arqCounts
	var allocOps []transportOp
	start := time.Now()
	deadline, cancel := context.WithDeadline(context.Background(), start.Add(seconds))
	defer cancel()
	for i := 0; i == 0 || deadline.Err() == nil; i++ {
		ctx := deadline
		if i == 0 {
			ctx = context.Background()
		}
		fseed := transferSeed(seed, i)
		msg := message(fseed)
		var plain, traced *reliable.Report
		var plainWall, tracedWall float64
		var tt *tracedTransport
		var wrapped *transfer
		var delivered [][]byte
		for pass := 0; pass < 2; pass++ {
			if (pass+i)%2 == 0 {
				t, err := newTransfer(fseed, nil)
				if err != nil {
					return err
				}
				t0 := time.Now()
				plain, _ = t.send(ctx, msg, newOutcome(), func() { plainWall = time.Since(t0).Seconds() })
				continue
			}
			var err error
			wrapped, err = newTransfer(fseed, func(tx reliable.Transport) reliable.Transport {
				tt = &tracedTransport{Transport: tx, tr: tr, req: int64(i) << 32}
				return tt
			})
			if err != nil {
				return err
			}
			tt.parent = tr.begin(layerSession, -1, tt.req)
			traced, delivered = wrapped.send(ctx, msg, o, func() { tr.end(tt.parent) })
			s := tr.spans[tt.parent]
			tracedWall = float64(s.end-s.start) / 1e9
		}
		c.tracedWall += tracedWall
		if ctx.Err() == nil {
			if *plain != *traced {
				o.fail("transfer %d: traced report %+v differs from untraced %+v", fseed, *traced, *plain)
			}
			c.pairPlain += plainWall
			c.pairTraced += tracedWall
		}
		c.sends += traced.FramesSent
		c.retransmits += traced.Retransmits
		c.timeouts += traced.Timeouts
		c.escs += traced.Escalations
		if err := replayTransfer(fseed, tt.ops, tr, wrapped.link, delivered, &c, o); err != nil {
			return err
		}
		if allocOps == nil {
			allocOps = tt.ops
		}
	}

	self, calls := layerTotals(tr.spans)
	perCall := func(layer string) float64 { return ratio(float64(self[layer]), float64(calls[layer])) }
	v := o.values
	v[layerEncode+".ns_per_frame"] = perCall(layerEncode)
	v[layerModulate+".ns_per_sample"] = ratio(float64(self[layerModulate]), float64(c.modSamples))
	if err := allocPass(allocOps, v); err != nil {
		return err
	}
	v[layerFault+".ns_per_frame"] = perCall(layerFault)
	v[layerFault+".dropped_ratio"] = ratio(float64(c.drops), float64(c.applies))
	v[layerFrontEnd+".ns_per_sample"] = ratio(float64(self[layerFrontEnd]), float64(c.feSamples))
	c.events.report(v)
	v[layerHuntIdle+".ns_per_phase"] = ratio(float64(self[layerHuntIdle]), float64(c.idlePhases))
	v[layerHuntIdle+".phase_share"] = ratio(float64(c.idlePhases), float64(c.stackPhases))
	v[layerHuntFrame+".ns_per_phase"] = ratio(float64(self[layerHuntFrame]), float64(c.framePhases))
	// The whole batch decode per phase: the stack's own calls and the
	// hunt pieces it was pushed in.
	v[layerStack+".ns_per_phase"] = ratio(float64(self[layerStack]+self[layerHuntIdle]+self[layerHuntFrame]), float64(c.stackPhases))
	v[layerCoded+".calls"] = float64(c.codedCalls)
	v[layerCoded+".ns_per_call"] = perCall(layerCoded)
	v[layerCoded+".hit_ratio"] = ratio(float64(c.codedHits), float64(c.codedCalls))
	v[layerReceiver+".ns_per_frame"] = perCall(layerReceiver)
	v[layerReceiver+".dup_drops"] = float64(c.dupDrops)
	v[layerDownlink+".ns_per_call"] = perCall(layerDownlink)
	v[layerDownlink+".acks_sent"] = float64(c.acksSent)
	v[layerDownlink+".acks_dropped"] = float64(c.acksDropped)
	v[layerDownlink+".collisions"] = float64(c.collisions)
	v[layerSession+".self_ns_per_send"] = ratio(float64(self[layerSession]), float64(c.sends))
	v[layerSession+".sends"] = float64(c.sends)
	v[layerSession+".retransmits"] = float64(c.retransmits)
	v[layerSession+".timeouts"] = float64(c.timeouts)
	v[layerSession+".escalations"] = float64(c.escs)
	v[layerSession+".useful_ratio"] = ratio(float64(c.sends-c.retransmits), float64(c.sends))
	for _, l := range layers {
		v[l+".share"] = ratio(float64(self[l])/1e9, c.tracedWall)
	}
	v[layerTrace+".attributed_ratio"] = attributedRatio(tr.spans, "transport.send", "replay.send")
	v[layerTrace+".overhead_ratio"] = ratio(c.pairPlain, c.pairTraced)
	if spansPath != "" {
		return tr.write(spansPath)
	}
	return nil
}

// replayTransfer replays one transfer's recorded Transport calls through
// the public layer entries SimLink.Send is built from, in pipeline
// order, timing each under a replay.send span. The layers' state comes
// from a fresh SimLink with the same config (its duplex and ARQ
// receiver) plus an own PHY and fault injector on the same seed, so the
// replay must reproduce the real link's deliveries, fault schedule and
// ack ledger exactly.
func replayTransfer(fseed int64, ops []transportOp, tr *tracer, sim *reliable.SimLink, delivered [][]byte, c *arqCounts, o *outcome) error {
	cfg := simConfig(fseed)
	rl, err := reliable.NewSimLink(cfg)
	if err != nil {
		return err
	}
	defer rl.Close()
	phy, err := core.NewLink(cfg.Params, 0)
	if err != nil {
		return err
	}
	inj, err := channel.NewFaultInjector(cfg.Faults)
	if err != nil {
		return err
	}
	ly := &replayLayers{phy: phy, inj: inj, duplex: rl.Duplex(), arq: rl.Receiver()}
	down := ly.duplex.Down()
	for _, op := range ops {
		switch op.kind {
		case opAcks:
			s := tr.begin("replay.poll", -1, op.req)
			down.Arrivals(op.now)
			tr.end(s)
			continue
		case opNextArrival:
			s := tr.begin("replay.poll", -1, op.req)
			down.NextArrival(op.now)
			tr.end(s)
			continue
		}
		root := tr.begin("replay.send", -1, op.req)
		err := ly.send(op, tr, root, c)
		tr.end(root)
		if err != nil {
			return err
		}
	}

	if msgs := rl.Messages(); !slices.EqualFunc(msgs, delivered, bytes.Equal) {
		o.fail("transfer %d: replay delivered %d messages, the link %d", fseed, len(msgs), len(delivered))
	}
	rLost, rJam, rDrift := sim.FaultStats()
	if lost, jam, drift := inj.Stats(); lost != rLost || jam != rJam || drift != rDrift {
		o.fail("transfer %d: replay faults %d/%d/%d, link %d/%d/%d", fseed, lost, jam, drift, rLost, rJam, rDrift)
	}
	rs := sim.ReverseStats()
	if got := rl.ReverseStats(); got != rs {
		o.fail("transfer %d: replay ack ledger %+v, link %+v", fseed, got, rs)
	}
	if got, want := ly.arq.DupDrops(), sim.Receiver().DupDrops(); got != want {
		o.fail("transfer %d: replay dropped %d duplicates, link %d", fseed, got, want)
	}
	c.dupDrops += sim.Receiver().DupDrops()
	c.acksSent += rs.AcksSent
	c.acksDropped += rs.AcksDropped
	c.collisions += rs.AckCollisions + rs.ForwardCollisions
	return nil
}

// replayLayers are the layers one transfer's replay calls into.
type replayLayers struct {
	phy    *core.Link
	inj    *channel.FaultInjector
	duplex *link.Duplex
	arq    *reliable.Receiver
}

// encodeFrame maps a frame onto its broadcast payload in the given
// coding mode, as SimLink.Send does.
func encodeFrame(f *core.Frame, coded bool) ([]byte, error) {
	if coded {
		return reliable.EncodeCodedFrame(f)
	}
	return core.EncodeFrame(f)
}

// send is SimLink.Send, one layer call at a time, each under its own
// span below root.
func (ly *replayLayers) send(op transportOp, tr *tracer, root int, c *arqCounts) error {
	up := ly.duplex.Up()
	s := tr.begin(layerEncode, root, op.req)
	payload, err := encodeFrame(op.frame, op.coded)
	tr.end(s)
	if err != nil {
		return err
	}
	end := op.now + reliable.FrameAirtime(len(op.frame.Data), op.coded)
	s = tr.begin(layerDownlink, root, op.req)
	collides := ly.duplex.ForwardCollides(op.now, end)
	tr.end(s)
	if collides {
		return nil
	}
	s = tr.begin(layerModulate, root, op.req)
	sig, err := ly.phy.PayloadToSignal(payload)
	tr.end(s)
	if err != nil {
		return err
	}
	c.modSamples += int64(len(sig))
	s = tr.begin(layerFault, root, op.req)
	capture, ok := ly.inj.Apply(sig)
	tr.end(s)
	c.applies++
	if !ok {
		c.drops++
		return nil
	}
	s = tr.begin(layerFrontEnd, root, op.req)
	phases := ly.phy.Phases(capture)
	tr.end(s)
	c.feSamples += int64(len(capture))
	events, err := ly.decode(phases, tr, root, op.req, c)
	if err != nil {
		return err
	}
	var frame *core.Frame
	for _, ev := range events {
		if ev.Kind == core.EventFrame {
			frame = ev.Frame
		}
	}
	if frame == nil {
		s = tr.begin(layerCoded, root, op.req)
		frame, _ = reliable.DecodeCodedPhases(up.Decoder(), phases)
		tr.end(s)
		c.codedCalls++
		if frame == nil {
			return nil
		}
		c.codedHits++
	}
	s = tr.begin(layerReceiver, root, op.req)
	ack, _ := ly.arq.Deliver(frame)
	tr.end(s)
	s = tr.begin(layerDownlink, root, op.req)
	ly.duplex.Down().Generate(end, ack.NextSeq, false)
	tr.end(s)
	return nil
}

// decode runs one capture's phases through the batch stack: Reset, then
// PushPhases in chunkSize pieces, then Flush and Drain. Each piece is
// timed on its own span and attributed, as on rx-idle, to link.hunt_idle
// when the machine hunts before and after it and emits nothing, else to
// link.hunt_frame; Reset, Flush and the drains are link.stack.
func (ly *replayLayers) decode(phases []float64, tr *tracer, root int, req int64, c *arqCounts) ([]link.Event, error) {
	up := ly.duplex.Up()
	s := tr.begin(layerStack, root, req)
	up.Reset()
	tr.end(s)
	var events []link.Event
	for off := 0; off < len(phases); off += chunkSize {
		piece := phases[off:min(off+chunkSize, len(phases))]
		before := up.State()
		h := tr.begin(layerHuntIdle, root, req)
		err := up.PushPhases(piece)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		s = tr.begin(layerStack, root, req)
		n := len(events)
		events = append(events, up.Drain()...)
		tr.end(s)
		if before == core.StateHunting && up.State() == core.StateHunting && len(events) == n {
			c.idlePhases += int64(len(piece))
		} else {
			tr.rename(h, layerHuntFrame)
			c.framePhases += int64(len(piece))
		}
	}
	s = tr.begin(layerStack, root, req)
	err := up.Flush()
	events = append(events, up.Drain()...)
	tr.end(s)
	c.stackPhases += int64(len(phases))
	c.events.add(events)
	return events, err
}

// allocPass measures the modulator's and the front end's allocations,
// one pass per layer over the first recorded frames, apart from the
// timed run so that reading the heap statistics does not distort the
// timings.
func allocPass(ops []transportOp, v map[string]float64) error {
	phy, err := core.NewLink(core.Params20(), 0)
	if err != nil {
		return err
	}
	var payloads [][]byte
	for _, op := range ops {
		if op.kind != opSend {
			continue
		}
		p, err := encodeFrame(op.frame, op.coded)
		if err != nil {
			return err
		}
		if payloads = append(payloads, p); len(payloads) == allocFrames {
			break
		}
	}
	n := float64(len(payloads))
	sigs := make([][]complex128, len(payloads))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i, p := range payloads {
		if sigs[i], err = phy.PayloadToSignal(p); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&b)
	v[layerModulate+".bytes_per_frame"] = ratio(float64(b.TotalAlloc-a.TotalAlloc), n)
	v[layerModulate+".allocs_per_frame"] = ratio(float64(b.Mallocs-a.Mallocs), n)
	var samples int
	runtime.ReadMemStats(&a)
	for _, sig := range sigs {
		phy.Phases(sig)
		samples += len(sig)
	}
	runtime.ReadMemStats(&b)
	v[layerFrontEnd+".bytes_per_sample"] = ratio(float64(b.TotalAlloc-a.TotalAlloc), float64(samples))
	return nil
}
