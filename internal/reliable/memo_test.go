package reliable

import (
	"reflect"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/dsp"
	"symbee/internal/link"
)

func newTestSimLink(t *testing.T) (*SimLink, *link.Metrics) {
	t.Helper()
	m := link.NewMetrics()
	cfg := DefaultSimConfig()
	cfg.Downlink = DownlinkIdeal
	cfg.Metrics = m
	l, err := NewSimLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l, m
}

func testPayload(t *testing.T, seq byte) []byte {
	t.Helper()
	payload, err := core.EncodeFrame(&core.Frame{Seq: seq, Data: []byte("memo test")})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// A memo hit skips the PHY, hands out a fresh copy of the frame and
// replays the frame-fate counters: mutating a delivered frame changes
// no later hit, and SamplesIn counts only the one demodulated capture.
func TestSimLinkMemoHandsOutCopies(t *testing.T) {
	l, m := newTestSimLink(t)
	payload := testPayload(t, 7)
	first, err := l.receive(payload, channel.Fate{})
	if err != nil || first == nil {
		t.Fatalf("clean capture did not decode: %v", err)
	}
	want := cloneFrame(first)
	fate := [3]uint64{m.Locks.Load(), m.FramesDecoded.Load(), m.FramesFailed.Load()}
	sig, err := l.phy.PayloadToSignal(payload)
	if err != nil {
		t.Fatal(err)
	}
	first.Seq++
	first.Data[0] ^= 0xFF
	for i := 0; i < 2; i++ {
		hit, err := l.receive(payload, channel.Fate{})
		if err != nil || !reflect.DeepEqual(hit, want) {
			t.Fatalf("hit %d = %+v, want %+v", i, hit, want)
		}
		hit.Data[0] ^= 0xFF
	}
	if got := [3]uint64{m.Locks.Load(), m.FramesDecoded.Load(), m.FramesFailed.Load()}; got != [3]uint64{3 * fate[0], 3 * fate[1], 3 * fate[2]} {
		t.Fatalf("frame-fate counters %v after three receives, first receive %v", got, fate)
	}
	if got := m.SamplesIn.Load(); got != uint64(len(sig)) {
		t.Fatalf("SamplesIn = %d, want the one demodulated capture's %d", got, len(sig))
	}
}

// Jammed and drifted captures run the full PHY and never enter the
// memo.
func TestSimLinkMemoSkipsImpairedCaptures(t *testing.T) {
	l, _ := newTestSimLink(t)
	for i, fate := range []channel.Fate{{Jammed: true}, {Drifted: true}, {Jammed: true, Drifted: true}} {
		if _, err := l.receive(testPayload(t, byte(i)), fate); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.memo.outcomes); n != 0 {
		t.Fatalf("impaired captures entered the memo: %d entries", n)
	}
}

// The memo starts over at its size bound and whenever the phase kernel
// flips.
func TestSimLinkMemoBounded(t *testing.T) {
	var memo rxMemo
	key := make([]byte, 4)
	for i := 0; i < 3*rxMemoCap; i++ {
		key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
		if _, ok := memo.lookup(key); ok {
			t.Fatalf("key %d hit before it was stored", i)
		}
		memo.store(key, rxOutcome{locks: 1})
		if n := len(memo.outcomes); n > rxMemoCap {
			t.Fatalf("memo grew to %d entries, bound %d", n, rxMemoCap)
		}
	}
	if _, ok := memo.lookup(key); !ok {
		t.Fatal("latest entry missing")
	}
	dsp.UseExactPhase = !dsp.UseExactPhase
	defer func() { dsp.UseExactPhase = !dsp.UseExactPhase }()
	if _, ok := memo.lookup(key); ok || len(memo.outcomes) != 0 {
		t.Fatal("phase-kernel flip did not clear the memo")
	}
}
