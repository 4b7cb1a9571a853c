package stream

import (
	"bytes"
	"math/rand"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/testutil"
	"symbee/internal/wifi"
)

// capture is one equivalence scenario: an IQ stream plus the receiver
// configuration that should decode it.
type capture struct {
	name         string
	params       core.Params
	compensation float64
	iq           []complex128
}

// equivalenceCaptures builds the scenario matrix: clean and noisy
// channels, real CFO pairs, both bandwidths, back-to-back frames and
// pure noise.
func equivalenceCaptures(t *testing.T) []capture {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	mk := func(name string, p core.Params, comp float64, cfg channel.Config, frames ...*core.Frame) capture {
		l, err := core.NewLink(p, comp)
		if err != nil {
			t.Fatal(err)
		}
		var iq []complex128
		for _, f := range frames {
			sig, err := l.TransmitFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			m, err := channel.NewMedium(cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			iq = append(iq, m.Transmit(sig)...)
		}
		return capture{name: name, params: p, compensation: comp, iq: iq}
	}
	p20, p40 := core.Params20(), core.Params40()
	cfoPair, err := wifi.FreqOffset(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	caps := []capture{
		mk("clean-no-cfo", p20, 0,
			channel.Config{SampleRate: p20.SampleRate, SNRdB: 40, Pad: 500},
			&core.Frame{Seq: 1, Data: []byte("clean")}),
		mk("snr5-cfo", p20, wifi.CanonicalCompensation,
			channel.Config{SampleRate: p20.SampleRate, SNRdB: 5, FreqOffset: channel.DefaultFreqOffset, Pad: 700},
			&core.Frame{Seq: 2, Flags: 0x1, Data: []byte("noisy")}),
		mk("snr0-cfo", p20, wifi.CanonicalCompensation,
			channel.Config{SampleRate: p20.SampleRate, SNRdB: 0, FreqOffset: channel.DefaultFreqOffset, Pad: 700},
			&core.Frame{Seq: 3, Data: []byte("edge")}),
		mk("real-channel-pair", p20, wifi.CanonicalCompensation,
			channel.Config{SampleRate: p20.SampleRate, SNRdB: 20, FreqOffset: cfoPair, Pad: 400},
			&core.Frame{Seq: 4, Data: []byte("wc1zk11")}),
		mk("40mhz", p40, wifi.CanonicalCompensation,
			channel.Config{SampleRate: p40.SampleRate, SNRdB: 15, FreqOffset: channel.DefaultFreqOffset, Pad: 600},
			&core.Frame{Seq: 5, Data: []byte("wide")}),
		mk("multi-frame", p20, wifi.CanonicalCompensation,
			channel.Config{SampleRate: p20.SampleRate, SNRdB: 15, FreqOffset: channel.DefaultFreqOffset, Pad: 2000},
			&core.Frame{Seq: 6, Data: []byte("one")},
			&core.Frame{Seq: 7, Data: []byte("two")},
			&core.Frame{Seq: 8, Data: []byte("three")}),
	}
	// Noise only: the pipeline must stay silent and bounded.
	noise := make([]complex128, 60000)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	caps = append(caps, capture{name: "noise-only", params: p20, compensation: wifi.CanonicalCompensation, iq: noise})
	return caps
}

// replayIQ pushes the capture through a fresh Receiver in chunks of the
// given size and returns every event.
func replayIQ(t *testing.T, c capture, chunk int) []Event {
	t.Helper()
	r, err := NewReceiver(c.params, c.compensation, nil)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for off := 0; off < len(c.iq); off += chunk {
		end := off + chunk
		if end > len(c.iq) {
			end = len(c.iq)
		}
		r.PushIQ(c.iq[off:end])
		events = append(events, r.Drain()...)
	}
	r.Flush()
	return append(events, r.Drain()...)
}

// replayPhases runs the same stream through the phase-input path.
func replayPhases(t *testing.T, c capture, chunk int) []Event {
	t.Helper()
	fe, err := wifi.NewFrontEnd(c.params.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	phases := fe.PhaseStream(c.iq)
	r, err := NewReceiver(c.params, c.compensation, nil)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for off := 0; off < len(phases); off += chunk {
		end := off + chunk
		if end > len(phases) {
			end = len(phases)
		}
		r.PushPhases(phases[off:end])
		events = append(events, r.Drain()...)
	}
	r.Flush()
	return append(events, r.Drain()...)
}

func diffEvents(t *testing.T, label string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d (got %+v, want %+v)", label, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Anchor != w.Anchor || g.End != w.End {
			t.Errorf("%s: event %d = {kind %v anchor %d end %d}, want {kind %v anchor %d end %d}",
				label, i, g.Kind, g.Anchor, g.End, w.Kind, w.Anchor, w.End)
		}
		switch {
		case (g.Frame == nil) != (w.Frame == nil):
			t.Errorf("%s: event %d frame presence mismatch", label, i)
		case g.Frame != nil:
			if g.Frame.Seq != w.Frame.Seq || g.Frame.Flags != w.Frame.Flags || !bytes.Equal(g.Frame.Data, w.Frame.Data) {
				t.Errorf("%s: event %d frame %+v, want %+v", label, i, g.Frame, w.Frame)
			}
		}
		gerr, werr := "", ""
		if g.Err != nil {
			gerr = g.Err.Error()
		}
		if w.Err != nil {
			werr = w.Err.Error()
		}
		if gerr != werr {
			t.Errorf("%s: event %d err %q, want %q", label, i, gerr, werr)
		}
	}
}

// TestStreamingMatchesBatch is the tentpole equivalence guarantee: for
// every scenario, streaming through any chunk size — down to one sample
// at a time — produces exactly the event sequence of a whole-capture
// pass, the phase-input path matches the IQ path, and the first decoded
// frame matches the batch Decoder.DecodeFrame answer.
func TestStreamingMatchesBatch(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	for _, c := range equivalenceCaptures(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want := replayIQ(t, c, len(c.iq)) // whole capture as one chunk
			for _, chunk := range []int{1, 7, 64, 641, 4096} {
				diffEvents(t, c.name, replayIQ(t, c, chunk), want)
			}
			diffEvents(t, c.name+"/phase-path", replayPhases(t, c, 4096), want)

			// Batch cross-check: DecodeFrame on the full phase stream must
			// agree with the first frame event (or its absence).
			l, err := core.NewLink(c.params, c.compensation)
			if err != nil {
				t.Fatal(err)
			}
			batch, batchErr := l.Decoder().DecodeFrame(l.Phases(c.iq))
			var first *Event
			for i := range want {
				if want[i].Kind == core.EventFrame {
					first = &want[i]
					break
				}
			}
			switch {
			case batchErr == nil && first == nil:
				t.Fatalf("batch decoded %+v but streaming produced no frame", batch)
			case batchErr == nil:
				if first.Frame.Seq != batch.Seq || !bytes.Equal(first.Frame.Data, batch.Data) {
					t.Errorf("streaming frame %+v, batch %+v", first.Frame, batch)
				}
			case first != nil:
				t.Fatalf("streaming decoded %+v but batch failed: %v", first.Frame, batchErr)
			}
			if c.name == "multi-frame" {
				n := 0
				for _, ev := range want {
					if ev.Kind == core.EventFrame {
						n++
					}
				}
				if n != 3 {
					t.Errorf("multi-frame: %d frames, want 3", n)
				}
			}
		})
	}
}

// TestReceiverBoundedOnNoise checks the hunting memory bound end to end
// through the Receiver (IQ path included).
func TestReceiverBoundedOnNoise(t *testing.T) {
	p := core.Params20()
	r, err := NewReceiver(p, 0, link.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	chunk := make([]complex128, 4096)
	for i := 0; i < 100; i++ {
		for j := range chunk {
			chunk[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		r.PushIQ(chunk)
		r.Drain()
	}
	// Retention bound from core (≈15.5k) plus one chunk of slack.
	if r.Buffered() > 25*p.BitPeriod+2*p.StableLen+len(chunk) {
		t.Errorf("buffered %d phases on noise", r.Buffered())
	}
}
