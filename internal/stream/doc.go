// Package stream is the real-time streaming receiver pipeline: it
// ingests unbounded IQ (or phase) streams in arbitrarily sized chunks
// and decodes SymBee frames from many concurrent links, with the same
// always-on idle-listening posture the paper's WiFi receiver has — the
// front-end never stops producing autocorrelation phases, so neither
// does the decoder.
//
// The pipeline has three layers:
//
//   - Incremental DSP. dsp.PhaseDiffStreamer turns IQ chunks into the
//     idle-listening phase stream with a lag-sample ring carried across
//     chunk boundaries, and core's preambleScanner keeps the sliding
//     fold sums, sign counts and windowed means alive between pushes.
//     A capture split at any offset produces bit-identical output to a
//     batch pass.
//
//   - Per-stream state machine. core.FrameMachine walks hunting →
//     preamble-fold lock → synchronized majority-vote decode → frame
//     emit, holding a bounded phase history (≈124 KiB per stream at
//     20 Msps while hunting). Batch decoding is one big chunk through
//     the same machine, so there is exactly one decoder implementation.
//
//   - Sharded worker pool. Pool runs N workers; each stream is sharded
//     to one worker by ID and its state is touched only by that worker,
//     so the hot path takes no locks. Bounded queues give explicit
//     backpressure (block) or load-shedding (drop, accounted).
//
// Every stage is instrumented by link.Metrics — stdlib-only atomic
// counters and fixed-bucket histograms with a JSON snapshot — covering
// chunks and samples in, phases produced, preamble locks, frames
// decoded and failed, drops, and per-stage latency.
//
// cmd/symbeestream replays trace files (or stdin IQ) through this
// pipeline at a target sample rate and prints throughput plus the
// metrics snapshot.
package stream
