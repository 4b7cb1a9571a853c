package link

import (
	"encoding/json"
	"reflect"
	"testing"

	"symbee/internal/medium"
)

// TestMultiSenderSingle pins the degenerate scenario: one sender on a
// quiet channel delivers everything and collides with nobody.
func TestMultiSenderSingle(t *testing.T) {
	cfg := medium.Defaults()
	cfg.Senders, cfg.FramesPerSender, cfg.Seed = 1, 4, 1
	rep, err := RunMedium(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collisions != 0 {
		t.Errorf("single sender collided %d times", rep.Collisions)
	}
	if rep.Delivered != 4 {
		t.Errorf("delivered %d/4 frames", rep.Delivered)
	}
	if len(rep.PerSender) != 1 || rep.PerSender[0].Sent != 4 {
		t.Errorf("per-sender accounting wrong: %+v", rep.PerSender)
	}
	if rep.GoodputBps <= 0 {
		t.Errorf("goodput %v, want positive", rep.GoodputBps)
	}
}

// TestMultiSenderContention runs the 4-sender acceptance scenario
// end-to-end: per-sender accounting is complete, collisions appear under
// a crowded schedule, and at least the uncollided share of each sender's
// frames is delivered.
func TestMultiSenderContention(t *testing.T) {
	rep, err := RunMedium(equivalenceConfig(4), NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerSender) != 4 {
		t.Fatalf("per-sender entries %d, want 4", len(rep.PerSender))
	}
	total := 0
	for i, st := range rep.PerSender {
		if st.Sender != i {
			t.Errorf("sender %d reported as %d", i, st.Sender)
		}
		if st.Sent != 4 {
			t.Errorf("sender %d sent %d, want 4", i, st.Sent)
		}
		if st.Delivered < st.Sent-st.Collided {
			t.Errorf("sender %d: %d delivered < %d uncollided",
				i, st.Delivered, st.Sent-st.Collided)
		}
		total += st.Delivered
	}
	if total != rep.Delivered {
		t.Errorf("per-sender delivered sums to %d, report says %d", total, rep.Delivered)
	}
	if rep.Delivered == 0 {
		t.Error("nothing delivered in the contention scenario")
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report does not marshal: %v", err)
	}
}

// TestMultiSenderDeterminism pins the seed contract: equal seeds
// reproduce the scenario bit-for-bit, different seeds differ somewhere.
func TestMultiSenderDeterminism(t *testing.T) {
	cfg := medium.Defaults()
	cfg.Senders, cfg.FramesPerSender, cfg.Seed = 2, 3, 17
	cfg.MeanGapAirtimes = 2
	cfg.CFOJitterHz, cfg.GainSpreadDB = 15e3, 2
	a, err := RunMedium(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMedium(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different reports:\n%+v\n%+v", a, b)
	}
}
