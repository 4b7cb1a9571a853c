package channel

import (
	"math"
	"math/cmplx"
	"testing"
)

func mustInjector(t *testing.T, cfg FaultConfig) *FaultInjector {
	t.Helper()
	fi, err := NewFaultInjector(cfg)
	if err != nil {
		t.Fatalf("NewFaultInjector(%+v): %v", cfg, err)
	}
	return fi
}

func testCapture(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*float64(i%7)/7)
	}
	return x
}

// Same seed, same frame sequence → identical outcomes and identical
// sample-level corruption.
func TestFaultInjectorDeterministic(t *testing.T) {
	cfg := FaultConfig{
		Seed: 7, FrameLoss: 0.2,
		BurstEvery: 10, BurstLen: 2, BurstSNRdB: -15,
		DriftEvery: 5, DriftRate: 1e-7,
		AckLoss: 0.3,
	}
	a, b := mustInjector(t, cfg), mustInjector(t, cfg)
	for i := 0; i < 200; i++ {
		ca, cb := testCapture(256), testCapture(256)
		oa, okA := a.Apply(ca)
		ob, okB := b.Apply(cb)
		if okA != okB {
			t.Fatalf("frame %d: outcome diverged: %v vs %v", i, okA, okB)
		}
		if okA {
			for j := range oa {
				if oa[j] != ob[j] {
					t.Fatalf("frame %d sample %d: corruption diverged", i, j)
				}
			}
		}
		if a.DropAck() != b.DropAck() {
			t.Fatalf("frame %d: ack outcome diverged", i)
		}
	}
	la, ja, da := a.Stats()
	lb, jb, db := b.Stats()
	if la != lb || ja != jb || da != db {
		t.Fatalf("stats diverged: (%d,%d,%d) vs (%d,%d,%d)", la, ja, da, lb, jb, db)
	}
	if la == 0 || ja == 0 || da == 0 {
		t.Fatalf("profile exercised nothing: lost=%d jammed=%d drifted=%d", la, ja, da)
	}
}

// Burst windows land exactly on the configured frame-counter schedule.
func TestFaultInjectorBurstSchedule(t *testing.T) {
	fi := mustInjector(t, FaultConfig{BurstEvery: 8, BurstLen: 3}) // SNR 0 → drop
	for i := 0; i < 32; i++ {
		_, ok := fi.Apply(testCapture(64))
		inBurst := i%8 < 3
		if ok == inBurst {
			t.Fatalf("frame %d: ok=%v, want burst drop=%v", i, ok, inBurst)
		}
	}
	lost, _, _ := fi.Stats()
	if lost != 12 {
		t.Fatalf("lost %d frames, want 12", lost)
	}
}

// A jamming burst (nonzero SNR) keeps the frame but corrupts it; frames
// outside the burst pass through untouched.
func TestFaultInjectorJamAndCleanFrames(t *testing.T) {
	fi := mustInjector(t, FaultConfig{Seed: 1, BurstEvery: 4, BurstLen: 1, BurstSNRdB: -20})
	ref := testCapture(128)
	for i := 0; i < 8; i++ {
		out, ok := fi.Apply(testCapture(128))
		if !ok {
			t.Fatalf("frame %d: jamming must not drop the frame", i)
		}
		changed := false
		for j := range out {
			if out[j] != ref[j] {
				changed = true
				break
			}
		}
		if inBurst := i%4 == 0; changed != inBurst {
			t.Fatalf("frame %d: changed=%v, want %v", i, changed, inBurst)
		}
	}
}

// The i.i.d. loss draw is consumed every frame, so enabling bursts does
// not shift which frames the loss pattern hits.
func TestFaultInjectorLossScheduleStable(t *testing.T) {
	lossOnly := mustInjector(t, FaultConfig{Seed: 42, FrameLoss: 0.3})
	withBurst := mustInjector(t, FaultConfig{Seed: 42, FrameLoss: 0.3, BurstEvery: 7, BurstLen: 2, BurstSNRdB: -10})
	for i := 0; i < 300; i++ {
		_, okA := lossOnly.Apply(testCapture(32))
		_, okB := withBurst.Apply(testCapture(32))
		if !okA && okB {
			t.Fatalf("frame %d: i.i.d. loss pattern shifted when bursts were enabled", i)
		}
	}
}

// Reverse-path draws live on their own splitmix stream: interleaving
// DropAck calls must not shift which forward frames the loss pattern
// hits, and toggling ack loss must not change the forward schedule.
func TestFaultInjectorReversePathIndependent(t *testing.T) {
	fwdOnly := mustInjector(t, FaultConfig{Seed: 11, FrameLoss: 0.3})
	interleaved := mustInjector(t, FaultConfig{Seed: 11, FrameLoss: 0.3, AckLoss: 0.5})
	for i := 0; i < 300; i++ {
		_, okA := fwdOnly.Apply(testCapture(32))
		_, okB := interleaved.Apply(testCapture(32))
		interleaved.DropAck() // reverse draw between every forward frame
		if okA != okB {
			t.Fatalf("frame %d: forward loss pattern shifted by reverse-path draws", i)
		}
	}
}

// Ack loss converges to the configured rate.
func TestFaultInjectorAckLossRate(t *testing.T) {
	fi := mustInjector(t, FaultConfig{Seed: 3, AckLoss: 0.25})
	dropped := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if fi.DropAck() {
			dropped++
		}
	}
	got := float64(dropped) / n
	if got < 0.22 || got > 0.28 {
		t.Fatalf("ack loss rate %.3f, want ≈0.25", got)
	}
}

// The drift ramp applies a pure phase rotation: magnitudes are
// untouched while late-sample phases walk away.
func TestFaultInjectorDriftRamp(t *testing.T) {
	fi := mustInjector(t, FaultConfig{DriftEvery: 1, DriftRate: 1e-6})
	x := testCapture(4096)
	out, ok := fi.Apply(x)
	if !ok {
		t.Fatal("drift must not drop the frame")
	}
	ref := testCapture(4096)
	for i := range out {
		if math.Abs(cmplx.Abs(out[i])-cmplx.Abs(ref[i])) > 1e-12 {
			t.Fatalf("sample %d: drift changed magnitude", i)
		}
	}
	last := len(out) - 1
	if d := cmplx.Abs(out[last] - ref[last]); d < 1e-3 {
		t.Fatalf("late sample unrotated (|Δ|=%g): drift ramp had no effect", d)
	}
}

// referenceApply is the historical single-step Apply, kept verbatim as
// the pin for the Decide/Impair split: same draws, same order, same
// counters.
func referenceApply(fi *FaultInjector, capture []complex128) ([]complex128, bool) {
	i := fi.frame
	fi.frame++
	lossDraw := fi.rng.Float64()
	if fi.cfg.FrameLoss > 0 && lossDraw < fi.cfg.FrameLoss {
		fi.lost++
		return nil, false
	}
	if fi.cfg.BurstEvery > 0 && fi.cfg.BurstLen > 0 && i%fi.cfg.BurstEvery < fi.cfg.BurstLen {
		if fi.cfg.BurstSNRdB == 0 {
			fi.lost++
			return nil, false
		}
		fi.jam(capture)
		fi.jammed++
	}
	if fi.cfg.DriftEvery > 0 && fi.cfg.DriftRate != 0 && i%fi.cfg.DriftEvery == fi.cfg.DriftEvery-1 {
		fi.driftRamp(capture)
		fi.drifts++
	}
	return capture, true
}

// Decide then Impair reproduces the historical Apply draw for draw:
// bitwise-identical captures, identical Stats and identical later
// DropAck draws — on the harsh profile (loss, jam, drift) and on a
// 0 dB burst profile whose bursts drop frames outright.
func TestFaultDecideImpairMatchesApply(t *testing.T) {
	profiles := map[string]FaultConfig{
		"harsh": {Seed: 3, FrameLoss: 0.15, BurstEvery: 48, BurstLen: 8, BurstSNRdB: -20,
			DriftEvery: 16, DriftRate: 4e-7, AckLoss: 0.10},
		"burst-0dB": {Seed: 9, FrameLoss: 0.05, BurstEvery: 10, BurstLen: 3, AckLoss: 0.2},
	}
	for name, cfg := range profiles {
		ref, split, wrap := mustInjector(t, cfg), mustInjector(t, cfg), mustInjector(t, cfg)
		var clean int
		for i := 0; i < 400; i++ {
			want, okRef := referenceApply(ref, testCapture(300))
			f := split.Decide()
			got, okSplit := split.Impair(testCapture(300), f)
			viaApply, okApply := wrap.Apply(testCapture(300))
			if okRef != okSplit || okRef != okApply || okSplit == f.Dropped {
				t.Fatalf("%s frame %d: delivered %v / %v / %v, fate %+v", name, i, okRef, okSplit, okApply, f)
			}
			if f.Clean() {
				clean++
			}
			for j := range want {
				for _, x := range []complex128{got[j], viaApply[j]} {
					if math.Float64bits(real(x)) != math.Float64bits(real(want[j])) ||
						math.Float64bits(imag(x)) != math.Float64bits(imag(want[j])) {
						t.Fatalf("%s frame %d sample %d: capture differs", name, i, j)
					}
				}
			}
			if i%3 == 0 {
				a, b, c := ref.DropAck(), split.DropAck(), wrap.DropAck()
				if a != b || a != c {
					t.Fatalf("%s frame %d: ack draws diverged", name, i)
				}
			}
		}
		l0, j0, d0 := ref.Stats()
		for _, fi := range []*FaultInjector{split, wrap} {
			if l, j, d := fi.Stats(); l != l0 || j != j0 || d != d0 {
				t.Fatalf("%s: stats (%d,%d,%d), reference (%d,%d,%d)", name, l, j, d, l0, j0, d0)
			}
		}
		if l0 == 0 || clean == 0 || (name == "harsh" && (j0 == 0 || d0 == 0)) {
			t.Fatalf("%s exercised too little: lost=%d jammed=%d drifted=%d clean=%d", name, l0, j0, d0, clean)
		}
	}
}
