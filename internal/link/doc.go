// Package link is the composable SymBee receive stack: one explicit
// Layer contract (typed input/output, per-layer stats) and a Stack
// composer that assembles the paper's layered pipeline — PHY sample
// source → phase-extraction kernel → preamble scan / frame machine →
// optional coding/ARQ hooks → application sink — from reusable stages.
//
// Before this package the repository wired that pipeline three times:
// the batch decoder (internal/core), the streaming worker pool
// (internal/stream) and the reliable-delivery harness
// (internal/reliable) each assembled DSP, framing and metrics slightly
// differently. Those are now configurations of the same Stack, with
// two presets:
//
//   - NewBatch: unbounded machine history, whole-capture semantics —
//     bit-identical to the historical Decoder.DecodeFrame batch entry
//     (the golden-trace equivalence tests pin this). The ARQ SimLink
//     builds the same whole-capture stack with the IQ front-end stage
//     added and resets it per capture.
//   - NewStreaming: IQ front-end plus bounded history, the per-stream
//     configuration internal/stream runs one of per pool shard.
//
// The Stack's push path keeps the repository's zero-alloc steady-state
// guarantee (//symbee:hotpath roots, pinned by AllocsPerRun tests), and
// every stage reports into the one Metrics registry that the streaming
// pool and the reliability layer previously kept separate copies of.
//
// On top of the unified stack, RunMedium (medium.go) receives the
// shared-medium scenario internal/medium synthesizes: N seeded ZigBee
// senders with independent CFO/SFO, timing and gain offsets superposed
// into a single WiFi receiver capture, with per-sender delivery and
// collision accounting.
package link
