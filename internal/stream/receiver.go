package stream

import (
	"symbee/internal/core"
	"symbee/internal/link"
)

// Event is one occurrence on one stream: a preamble lock, a decoded
// frame, or a decode failure. It is the link stack's event type —
// core.StreamEvent wrapped with the stream identity so pool consumers
// can demultiplex.
type Event = link.Event

// Receiver is the complete per-stream receive chain: the streaming
// preset of the link stack (incremental IQ→phase front-end feeding a
// bounded-history FrameMachine). It accepts IQ or phase chunks of any
// size and emits events exactly as a batch decode of the concatenated
// stream would. A Receiver is owned by one goroutine (its pool worker);
// it is not safe for concurrent use.
type Receiver struct {
	stack *link.Stack
}

// NewReceiver builds a single-stream receiver. metrics may be nil for
// an uninstrumented receiver (the hot path then skips all accounting).
func NewReceiver(p core.Params, compensation float64, metrics *link.Metrics) (*Receiver, error) {
	d, err := core.NewDecoder(p, compensation)
	if err != nil {
		return nil, err
	}
	return NewReceiverFromDecoder(d, metrics)
}

// NewReceiverFromDecoder wraps an existing decoder (useful when many
// receivers share one template/threshold configuration — pool shards
// do).
func NewReceiverFromDecoder(d *core.Decoder, metrics *link.Metrics) (*Receiver, error) {
	stack, err := link.NewStreaming(d, 0, metrics)
	if err != nil {
		return nil, err
	}
	return &Receiver{stack: stack}, nil
}

// setStream retags the receiver's events with the stream identity.
func (r *Receiver) setStream(id uint64) { r.stack.SetStream(id) }

// PushIQ consumes a chunk of IQ samples: the lag-ring front-end turns
// them into phases, which feed the frame machine. Pushing into a
// flushed receiver reports core.ErrFlushed.
func (r *Receiver) PushIQ(iq []complex128) error { return r.stack.PushIQ(iq) }

// PushPhases consumes a chunk of already-computed phase values (a
// KindPhase trace, or an external front-end). Pushing into a flushed
// receiver reports core.ErrFlushed.
func (r *Receiver) PushPhases(phases []float64) error { return r.stack.PushPhases(phases) }

// Flush ends the stream, forcing any pending decode with the data at
// hand.
func (r *Receiver) Flush() { r.stack.Flush() }

// Drain returns the events produced since the last call, tagged with
// the receiver's stream ID. The returned slice is the receiver's
// internal queue and is reused: it stays valid only until the next
// PushIQ/PushPhases/Flush on this receiver. Consumers that buffer
// events across pushes must copy the elements out (Frame pointers
// remain valid indefinitely).
func (r *Receiver) Drain() []Event { return r.stack.Drain() }

// State returns the underlying machine stage (for diagnostics).
func (r *Receiver) State() core.MachineState { return r.stack.State() }

// Buffered returns the machine's retained history length in phases.
func (r *Receiver) Buffered() int { return r.stack.Buffered() }

// LayerStats reports the per-layer accounting of the underlying stack
// (front-end, frame machine, sinks), bottom-up.
func (r *Receiver) LayerStats() []link.LayerStats { return r.stack.LayerStats() }
