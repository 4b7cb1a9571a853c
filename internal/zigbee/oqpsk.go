package zigbee

import (
	"fmt"
	"math"
)

// Modulator converts symbol streams into complex-baseband OQPSK signal
// sampled at a configurable rate. Even-indexed chips shape the in-phase
// rail and odd-indexed chips the quadrature rail; because the pulse for
// chip k starts at k chip slots, the quadrature rail is naturally offset
// by half a pulse (0.5 µs), which is the "O" in OQPSK (paper Fig. 2).
type Modulator struct {
	sampleRate     float64
	samplesPerSlot int
	pulse          []float64 // half-sine spanning two chip slots
	// shaped[b] is the rail contribution of a chip with value b, 0 + a·p
	// for every pulse sample p (a = −1 for chip 0, +1 otherwise) —
	// exactly what accumulating the pulse onto a zeroed rail yields,
	// including the +0 that 0 + (−1)·0 rounds to.
	shaped [2][]float64
	idle   []float64 // one slot of +0: a rail no pulse covers
}

// NewModulator returns a modulator producing samples at sampleRate Hz.
// The rate must be a positive integer multiple of the 2 MHz chip rate
// (10 samples per chip slot at 20 Msps, 20 at 40 Msps).
func NewModulator(sampleRate float64) (*Modulator, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("zigbee: sample rate %v must be positive", sampleRate)
	}
	spsF := sampleRate * ChipSlot
	sps := int(math.Round(spsF))
	if math.Abs(spsF-float64(sps)) > 1e-9 || sps < 2 {
		return nil, fmt.Errorf("zigbee: sample rate %v is not an integer multiple >=2 of the chip rate", sampleRate)
	}
	pulse := make([]float64, 2*sps)
	for i := range pulse {
		pulse[i] = math.Sin(math.Pi * float64(i) / float64(2*sps))
	}
	m := &Modulator{
		sampleRate:     sampleRate,
		samplesPerSlot: sps,
		pulse:          pulse,
		idle:           make([]float64, sps),
	}
	var zero float64
	for b, a := range [2]float64{-1, 1} {
		m.shaped[b] = make([]float64, len(pulse))
		for i, p := range pulse {
			m.shaped[b][i] = zero + a*p
		}
	}
	return m, nil
}

// SampleRate returns the output sample rate in Hz.
func (m *Modulator) SampleRate() float64 { return m.sampleRate }

// SamplesPerSlot returns the number of samples in one 0.5 µs chip slot.
func (m *Modulator) SamplesPerSlot() int { return m.samplesPerSlot }

// SamplesPerSymbol returns the number of samples in one 16 µs symbol.
func (m *Modulator) SamplesPerSymbol() int { return m.samplesPerSlot * ChipsPerSymbol }

// ModulateChips shapes a chip stream into complex baseband. Chip value 1
// maps to a positive half-sine and 0 to a negative one (the standard
// polarity; the paper's Fig. 2 text uses the opposite naming, which only
// flips the global sign of the waveform and no observable in this
// repository depends on it).
//
// The output holds (len(chips)+1) chip slots: the final pulse extends one
// slot past the last chip start.
func (m *Modulator) ModulateChips(chips []byte) []complex128 {
	w := m.newSlotWriter(nil, len(chips))
	w.chips(chips)
	return w.finish()
}

// ModulateSymbols spreads the symbols and shapes the resulting chips.
func (m *Modulator) ModulateSymbols(symbols []byte) []complex128 {
	return m.ModulateChips(SpreadSymbols(symbols))
}

// ModulateBytes expands bytes into symbols using order and modulates
// them.
func (m *Modulator) ModulateBytes(data []byte, order SymbolOrder) []complex128 {
	return m.ModulateBytesInto(nil, data, order)
}

// ModulateBytesInto is ModulateBytes writing into dst's backing array
// when its capacity suffices (allocating otherwise) and returning the
// filled slice. It spreads each symbol straight from the chip table, so
// a warm call allocates nothing.
func (m *Modulator) ModulateBytesInto(dst []complex128, data []byte, order SymbolOrder) []complex128 {
	w := m.newSlotWriter(dst, len(data)*2*ChipsPerSymbol)
	for _, b := range data {
		first, second := b>>4, b&0x0F
		if order == OrderLSBFirst {
			first, second = second, first
		}
		w.chips(chipTable[first][:])
		w.chips(chipTable[second][:])
	}
	return w.finish()
}

// slotWriter fills a waveform one chip slot at a time. Slot k carries
// the first half of chip k's pulse on chip k's rail and the second half
// of chip k−1's pulse on the other rail. Each rail's half-sine pulses
// never overlap, so every output sample is written exactly once from
// the shaped-pulse tables, bit-identical to accumulating the pulses
// onto zeroed rails.
type slotWriter struct {
	m    *Modulator
	out  []complex128
	k    int       // next chip index, i.e. the next slot to write
	tail []float64 // second half of chip k−1's pulse (idle before chip 0)
}

func (m *Modulator) newSlotWriter(dst []complex128, nChips int) slotWriter {
	n := (nChips + 1) * m.samplesPerSlot
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	return slotWriter{m: m, out: dst[:n], tail: m.idle}
}

func (w *slotWriter) chips(chips []byte) {
	sps := w.m.samplesPerSlot
	for _, c := range chips {
		p := w.m.shaped[1]
		if c == 0 {
			p = w.m.shaped[0]
		}
		if w.k%2 == 0 {
			w.slot(p[:sps], w.tail)
		} else {
			w.slot(w.tail, p[:sps])
		}
		w.tail = p[sps:]
		w.k++
	}
}

// finish writes the last slot — the final chip's trailing half, or
// silence for an empty stream — and returns the waveform.
func (w *slotWriter) finish() []complex128 {
	if w.k%2 == 1 {
		w.slot(w.tail, w.m.idle)
	} else {
		w.slot(w.m.idle, w.tail)
	}
	return w.out
}

func (w *slotWriter) slot(re, im []float64) {
	sps := w.m.samplesPerSlot
	out := w.out[w.k*sps : (w.k+1)*sps]
	re, im = re[:len(out)], im[:len(out)]
	for i := range out {
		out[i] = complex(re[i], im[i])
	}
}
