package reliable

import (
	"bytes"
	"context"
	"testing"
	"time"

	"symbee/internal/channel"
	"symbee/internal/link"
)

func TestDownlinkSchemeTable(t *testing.T) {
	schemes := DownlinkSchemes()
	if len(schemes) != 5 {
		t.Fatalf("schemes = %v, want ideal + 4 modeled operating points", schemes)
	}
	names := map[DownlinkScheme]string{
		DownlinkIdeal:   "ideal",
		DownlinkCMorse:  "cmorse",
		DownlinkFreeBee: "freebee",
		DownlinkDCTC:    "dctc",
		DownlinkEMF:     "emf",
	}
	for _, d := range schemes {
		if d.String() != names[d] {
			t.Errorf("scheme %d named %q, want %q", d, d.String(), names[d])
		}
		dl, err := d.downlink()
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if d == DownlinkIdeal {
			if d.Modeled() {
				t.Error("ideal reports Modeled")
			}
			if dl != nil {
				t.Errorf("ideal resolved a ctc downlink: %+v", dl)
			}
			continue
		}
		if !d.Modeled() {
			t.Errorf("%s does not report Modeled", d)
		}
		if dl.AckWall() <= 0 || dl.AckAir() <= 0 || dl.AckAir() > dl.AckWall() || dl.BaseLatency() <= 0 {
			t.Errorf("%s: wall=%v air=%v base=%v", d, dl.AckWall(), dl.AckAir(), dl.BaseLatency())
		}
	}
	if _, err := DownlinkScheme(99).downlink(); err == nil {
		t.Error("unknown scheme accepted")
	}
	if DownlinkScheme(99).String() != "unknown" || DownlinkScheme(99).Modeled() {
		t.Error("unknown scheme named or modeled")
	}
}

func TestDownlinkSchemeOperatingPoints(t *testing.T) {
	duty := func(d DownlinkScheme) (wall, duty float64) {
		dl, err := d.downlink()
		if err != nil {
			t.Fatal(err)
		}
		return dl.AckWall(), dl.Duty()
	}
	// FreeBee acks are far slower but far lower duty than C-Morse.
	cw, cd := duty(DownlinkCMorse)
	fw, fd := duty(DownlinkFreeBee)
	if fw <= cw {
		t.Errorf("FreeBee wall %v should exceed C-Morse wall %v", fw, cw)
	}
	if fd >= cd {
		t.Error("FreeBee duty should be below C-Morse duty")
	}
	// DCTC is the fastest modeled point; EMF sits at C-Morse-class
	// latency with a smaller collision cross-section.
	dw, _ := duty(DownlinkDCTC)
	ew, ed := duty(DownlinkEMF)
	if dw >= cw || dw >= ew {
		t.Errorf("DCTC wall %v should undercut C-Morse %v and EMF %v", dw, cw, ew)
	}
	if ed >= cd {
		t.Error("EMF duty should be below C-Morse duty")
	}
}

// TestSimLinkDownlinkLatency pins the Transport-level latency of each
// modeled scheme to its ctc operating point through the layered stack.
func TestSimLinkDownlinkLatency(t *testing.T) {
	for _, d := range DownlinkSchemes() {
		cfg := DefaultSimConfig()
		cfg.Downlink = d
		l, err := NewSimLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lat := l.AckLatency()
		l.Close()
		if d == DownlinkIdeal {
			if lat != 0 {
				t.Errorf("ideal latency = %v", lat)
			}
			continue
		}
		dl, err := d.downlink()
		if err != nil {
			t.Fatal(err)
		}
		want := time.Duration(dl.AckWall()*float64(time.Second)) +
			time.Duration(dl.BaseLatency()*float64(time.Second))
		if lat != want {
			t.Errorf("%s latency = %v, want %v", d, lat, want)
		}
	}
}

// TestSimLinkReverseCollisions drives a full transfer over the C-Morse
// downlink with no injected faults: every loss in the run is a genuine
// half-duplex collision between forward frames and ack bursts, and the
// session must still deliver through them.
func TestSimLinkReverseCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("PHY soak skipped in -short mode")
	}
	run := func() (*Report, ReverseStats) {
		cfg := DefaultSimConfig()
		cfg.Faults = channel.FaultConfig{Seed: 5}
		m := link.NewMetrics()
		cfg.Metrics = m
		link, err := NewSimLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()
		scfg := cfgSeed(5)
		scfg.Metrics = m
		s, err := NewSession(link, scfg)
		if err != nil {
			t.Fatal(err)
		}
		msg := testMessage(1000)
		rep, err := s.Send(context.Background(), msg)
		if err != nil {
			t.Fatalf("%v (report %+v)", err, rep)
		}
		if msgs := link.Messages(); len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
			t.Fatal("message not delivered intact through collisions")
		}
		return rep, link.ReverseStats()
	}
	rep, stats := run()
	if stats.AcksSent == 0 || stats.Airtime == 0 {
		t.Fatalf("reverse channel idle: %+v", stats)
	}
	if stats.ForwardCollisions+stats.AckCollisions == 0 {
		t.Errorf("no collisions at 25%% ack duty with a busy forward pipe: %+v", stats)
	}
	if stats.ForwardCollisions > 0 && rep.Retransmits == 0 {
		t.Error("forward frames died in collisions but nothing was retransmitted")
	}
	rep2, stats2 := run()
	if *rep != *rep2 || stats != stats2 {
		t.Errorf("same seed diverged:\n%+v %+v\n%+v %+v", rep, stats, rep2, stats2)
	}
}

// TestSimLinkLayerStats checks the duplex surfaces per-stage accounting
// for both halves: the uplink decode stages and the downlink's
// coalescer → occupancy → fault → sink chain.
func TestSimLinkLayerStats(t *testing.T) {
	cfg := DefaultSimConfig()
	l, err := NewSimLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := NewSession(l, cfgSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send(context.Background(), testMessage(100)); err != nil {
		t.Fatal(err)
	}
	stats := l.Duplex().LayerStats()
	byName := map[string]bool{}
	for _, st := range stats {
		byName[st.Name] = true
	}
	for _, want := range []string{"frame", "coalescer", "occupancy:C-Morse", "reversefault", "timedsink"} {
		if !byName[want] {
			t.Errorf("missing layer %q in %v", want, stats)
		}
	}
	var coal, sink link.LayerStats
	for _, st := range stats {
		switch st.Name {
		case "coalescer":
			coal = st
		case "timedsink":
			sink = st
		}
	}
	if coal.In == 0 || coal.Out == 0 {
		t.Errorf("coalescer idle over a full transfer: %+v", coal)
	}
	if sink.Out == 0 {
		t.Errorf("ack sink idle over a full transfer: %+v", sink)
	}
}

func TestSimConfigValidate(t *testing.T) {
	if err := DefaultSimConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultSimConfig()
	bad.AckRepeat = 0
	if bad.Validate() == nil {
		t.Error("AckRepeat 0 validated")
	}
	bad = DefaultSimConfig()
	bad.Downlink = DownlinkScheme(99)
	if bad.Validate() == nil {
		t.Error("unknown downlink validated")
	}
	bad = DefaultSimConfig()
	bad.Params.BitPeriod = 0
	if bad.Validate() == nil {
		t.Error("zero Params validated")
	}
	if _, err := NewSimLink(SimConfig{}); err == nil {
		t.Error("NewSimLink accepted the zero config")
	}
}
