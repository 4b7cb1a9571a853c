package reliable

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/link"
)

// -update regenerates the committed SimLink behaviour golden. The
// fixture pins what a SimLink-driven session observably does, so a
// pure performance change to the forward PHY, the fault injector or the
// receive path must leave it byte-identical.
var update = flag.Bool("update", false, "regenerate the SimLink behaviour golden")

const simGoldenFile = "testdata/simlink_golden.json"

// simGoldenCase is one SimLink configuration of the golden matrix.
type simGoldenCase struct {
	name      string
	params    core.Params
	faults    channel.FaultConfig
	downlink  DownlinkScheme
	ackRepeat int
	stream    bool
	seed      int64
}

// simGoldenCases covers the bidirectional profile on three seeds, the
// harsh profile (jam, drift and escalation), a clean ideal-downlink
// run, both receive-path presets on one profile and a Params40 run.
func simGoldenCases() []simGoldenCase {
	p20, p40 := core.Params20(), core.Params40()
	var cases []simGoldenCase
	for _, seed := range []int64{0, 1, 2} {
		cases = append(cases, simGoldenCase{
			name: fmt.Sprintf("bidir-seed%d", seed), params: p20,
			faults: ProfileBidir(seed), downlink: DownlinkCMorse, ackRepeat: 2, seed: seed,
		})
	}
	return append(cases,
		simGoldenCase{name: "harsh", params: p20, faults: ProfileHarsh(3),
			downlink: DownlinkCMorse, ackRepeat: 1, seed: 3},
		simGoldenCase{name: "clean-ideal", params: p20,
			downlink: DownlinkIdeal, ackRepeat: 1, seed: 1},
		simGoldenCase{name: "soak-batch", params: p20, faults: ProfileSoak(5),
			downlink: DownlinkCMorse, ackRepeat: 1, seed: 5},
		simGoldenCase{name: "soak-stream", params: p20, faults: ProfileSoak(5),
			downlink: DownlinkCMorse, ackRepeat: 1, stream: true, seed: 5},
		simGoldenCase{name: "params40", params: p40, faults: ProfileBidir(1),
			downlink: DownlinkCMorse, ackRepeat: 2, seed: 1},
	)
}

// simGoldenResult is everything the golden pins for one case: the
// session report, the downlink ledger, the injector's fault counts, the
// receiver's duplicate drops, a digest of the delivered messages and
// the frame-fate counters. Ingest-volume counters and wall-clock
// histograms are left out on purpose.
type simGoldenResult struct {
	Name          string
	Err           string
	Report        *Report
	Reverse       ReverseStats
	Lost          int
	Jammed        int
	Drifted       int
	DupDrops      int
	Messages      int
	MessagesSHA   string
	FramesLost    uint64
	Locks         uint64
	FramesDecoded uint64
	FramesFailed  uint64
	MetricDups    uint64
	AcksLost      uint64
}

// goldenMessage is the 1 KB message every golden case transfers.
func goldenMessage(seed int64) []byte {
	return soakMessage(seed)[:1024]
}

func runSimGolden(t *testing.T, c simGoldenCase) simGoldenResult {
	t.Helper()
	m := link.NewMetrics()
	cfg := DefaultSimConfig()
	cfg.Params = c.params
	cfg.Faults = c.faults
	cfg.Downlink = c.downlink
	cfg.AckRepeat = c.ackRepeat
	cfg.Stream = c.stream
	cfg.Metrics = m
	l, err := NewSimLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	scfg := DefaultConfig()
	scfg.Seed = c.seed
	scfg.Metrics = m
	s, err := NewSession(l, scfg)
	if err != nil {
		t.Fatal(err)
	}
	res := simGoldenResult{Name: c.name}
	rep, err := s.Send(context.Background(), goldenMessage(c.seed))
	if err != nil {
		res.Err = err.Error()
	}
	res.Report = rep
	res.Reverse = l.ReverseStats()
	res.Lost, res.Jammed, res.Drifted = l.FaultStats()
	res.DupDrops = l.Receiver().DupDrops()
	msgs := l.Messages()
	res.Messages = len(msgs)
	h := sha256.New()
	for _, msg := range msgs {
		h.Write([]byte{byte(len(msg) >> 24), byte(len(msg) >> 16), byte(len(msg) >> 8), byte(len(msg))})
		h.Write(msg)
	}
	res.MessagesSHA = hex.EncodeToString(h.Sum(nil))
	res.FramesLost = m.FramesLost.Load()
	res.Locks = m.Locks.Load()
	res.FramesDecoded = m.FramesDecoded.Load()
	res.FramesFailed = m.FramesFailed.Load()
	res.MetricDups = m.DupDrops.Load()
	res.AcksLost = m.AcksLost.Load()
	return res
}

// TestSimLinkGolden replays the golden matrix and compares the results
// byte for byte with the committed fixture. Regenerate with -update.
func TestSimLinkGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("SimLink golden skipped in -short mode")
	}
	cases := simGoldenCases()
	results := make([]simGoldenResult, len(cases))
	t.Run("cases", func(t *testing.T) {
		for i, c := range cases {
			i, c := i, c
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				results[i] = runSimGolden(t, c)
			})
		}
	})
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.FromSlash(simGoldenFile)
	if *update {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("SimLink golden missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("SimLink behaviour diverged from committed fixture %s:\n%s", path, blob)
	}
}
