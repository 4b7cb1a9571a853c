# Shared test-selection gate lists, sourced by scripts/check.sh and the
# CI workflows (.github/workflows/*.yml) so the two cannot drift: the
# -run regexes and race-scoped package list live here and only here.
#
# POSIX sh; no shebang — this file is sourced, not executed.

# Link-stack bit-exactness gate (DESIGN.md §11): committed golden
# fixtures through every stack configuration at every chunk size, plus
# the warm-ingest zero-alloc pins.
LINK_EQUIVALENCE_RUN='TestGoldenTraceEquivalence|TestStreamingChunkInvariance|TestStackSteadyStateZeroAlloc|TestStackWithSinkZeroAlloc'

# Batched idle-hunt kernel gate (DESIGN.md §13): the chunked batch path
# must match the per-sample reference scanner bit for bit, and the warm
# batch hunt must stay allocation-free.
HUNT_EQUIVALENCE_RUN='TestHuntScalarBatchEquivalence|TestHuntBatchZeroAlloc'

# Medium-engine equivalence (DESIGN.md §12): the event-driven lazy
# synthesizer must reproduce the dense reference bit-for-bit.
MEDIUM_EQUIVALENCE_RUN='TestMediumLinkEquivalence'

# Duplex downlink equivalence gate (DESIGN.md §15): the layered
# link.DownStack must match the retired monolithic reverseChannel bit
# for bit over 100 randomized seeds (the reference survives verbatim in
# internal/reliable as a test-only pin), and the committed downlink
# golden traces must replay byte-identically at every polling cadence.
# Run over both packages: the golden fixture lives in internal/link,
# the equivalence reference in internal/reliable.
DUPLEX_EQUIVALENCE_RUN='TestDownlinkLayeredEquivalence|TestDownlinkGoldenTraces'

# SimLink behaviour golden (DESIGN.md §15.3): sessions over the
# simulated link — bidirectional, harsh, clean, soak and Params40 —
# must reproduce the committed reports, ledgers, fault
# counts, delivered-message digests and frame-fate counters byte for
# byte, so forward-PHY and receive-path optimizations stay invisible.
SIMLINK_EQUIVALENCE_RUN='TestSimLinkGolden'

# ARQ acceptance soaks (DESIGN.md §14): the 100-seed forward soak plus
# the bidirectional soak (10% loss forward, 10%
# per-copy ack loss on the modeled downlink). CI and nightly run these
# with RELIABLE_SOAK_RUNS=100.
ARQ_SOAK_RUN='TestARQSoak|TestARQBidirectionalSoak'

# Packages for race-detector coverage. Audited 2026-08 against the two
# properties that make -race worth its ~10x slowdown: the package spawns
# goroutines (grep for 'go func'/'go ident' outside tests) or owns
# *rand.Rand / splitmix streams whose draw order a race would scramble.
# Goroutine spawners: dsp, link, reliable, sim, stream (plus testutil,
# whose helpers only run inside the importing packages' tests, and the
# cmd/ binaries, which CI exercises via the stream-throughput job).
# RNG owners: the root package, channel, ctc, mac, medium, reliable,
# sim, splitmix, wifi. core stays listed for the decoder state machine
# driven concurrently by stream, and vet for its GOMAXPROCS-bounded
# analyzer fan-out. Re-audited for the duplex refactor: link now also
# owns the downlink's collision RNG (DownSpec.Collide) — it was already
# in scope as a goroutine spawner, so the list is unchanged.
RACE_PACKAGES='. ./internal/stream/... ./internal/core/... ./internal/reliable/... ./internal/channel/... ./internal/link/... ./internal/medium/... ./internal/ctc/... ./internal/sim/... ./internal/dsp/... ./internal/splitmix/... ./internal/mac/... ./internal/wifi/... ./internal/vet/...'
