package zigbee

import (
	"math"
	"math/rand"
	"testing"

	"symbee/internal/dsp"
)

func TestNewModulatorRates(t *testing.T) {
	tests := []struct {
		rate    float64
		wantSPS int
		wantErr bool
	}{
		{20e6, 10, false},
		{40e6, 20, false},
		{4e6, 2, false},
		{2e6, 0, true},  // 1 sample/slot is too coarse
		{21e6, 0, true}, // non-integer samples per slot
		{0, 0, true},
		{-5, 0, true},
	}
	for _, tt := range tests {
		m, err := NewModulator(tt.rate)
		if tt.wantErr {
			if err == nil {
				t.Errorf("rate %v: expected error", tt.rate)
			}
			continue
		}
		if err != nil {
			t.Errorf("rate %v: %v", tt.rate, err)
			continue
		}
		if m.SamplesPerSlot() != tt.wantSPS {
			t.Errorf("rate %v: sps = %d, want %d", tt.rate, m.SamplesPerSlot(), tt.wantSPS)
		}
		if m.SamplesPerSymbol() != tt.wantSPS*32 {
			t.Errorf("rate %v: samples/symbol = %d", tt.rate, m.SamplesPerSymbol())
		}
	}
}

func TestModulateChipsLengthAndRails(t *testing.T) {
	m, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	// One positive chip on each rail.
	x := m.ModulateChips([]byte{1, 1})
	if len(x) != 3*10 {
		t.Fatalf("len = %d, want 30", len(x))
	}
	// In-phase pulse occupies samples [0,20); quadrature [10,30).
	if real(x[5]) <= 0 || imag(x[5]) != 0 {
		t.Errorf("sample 5 = %v: I rail should be active, Q idle", x[5])
	}
	if imag(x[25]) <= 0 || real(x[25]) != 0 {
		t.Errorf("sample 25 = %v: Q rail should be active, I idle", x[25])
	}
	// Peak of the in-phase half-sine at its center.
	if math.Abs(real(x[10])-1) > 1e-12 {
		t.Errorf("I pulse peak = %v, want 1", real(x[10]))
	}
}

func TestModulateChipPolarity(t *testing.T) {
	m, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	pos := m.ModulateChips([]byte{1})
	neg := m.ModulateChips([]byte{0})
	for i := range pos {
		if real(pos[i]) != -real(neg[i]) {
			t.Fatalf("chip polarity not antisymmetric at sample %d", i)
		}
	}
}

func TestModulatedSignalPower(t *testing.T) {
	m, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	x := m.ModulateSymbols([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	p := dsp.Power(x)
	// Two offset half-sine rails average sin^2 = 0.5 each → power ≈ 1.
	if p < 0.9 || p > 1.1 {
		t.Errorf("mean power = %v, want ≈1", p)
	}
}

func TestSymbolPairStablePhase(t *testing.T) {
	// The paper's central PHY observation (Figs. 6-8): symbol pairs
	// (6,7) and (E,F) contain a 5 µs continuous sinusoid that
	// cross-observes as an 84-sample stable run at ±4π/5, and the two
	// runs have opposite signs.
	m, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	stable := func(symbols []byte) (length int, value float64) {
		x := m.ModulateSymbols(symbols)
		ph := dsp.PhaseDiffStream(x, 16)
		start, n := dsp.LongestStableRun(ph, 0.05)
		return n, ph[start]
	}

	len67, val67 := stable([]byte{6, 7})
	lenEF, valEF := stable([]byte{0xE, 0xF})
	if len67 < 84 {
		t.Errorf("(6,7) stable run = %d, want >= 84", len67)
	}
	if lenEF < 84 {
		t.Errorf("(E,F) stable run = %d, want >= 84", lenEF)
	}
	want := 4 * math.Pi / 5
	if math.Abs(math.Abs(val67)-want) > 1e-6 {
		t.Errorf("(6,7) stable phase = %v, want ±4π/5", val67)
	}
	if math.Abs(math.Abs(valEF)-want) > 1e-6 {
		t.Errorf("(E,F) stable phase = %v, want ±4π/5", valEF)
	}
	if val67*valEF >= 0 {
		t.Errorf("(6,7) and (E,F) phases should have opposite signs: %v vs %v", val67, valEF)
	}
}

func TestSymbolPairStablePhase40MHz(t *testing.T) {
	// §VI-B: at 40 Msps the lag doubles to 32 and the stable run doubles
	// to 168 values while the phase stays ±4π/5.
	m, err := NewModulator(40e6)
	if err != nil {
		t.Fatal(err)
	}
	x := m.ModulateSymbols([]byte{6, 7})
	ph := dsp.PhaseDiffStream(x, 32)
	start, n := dsp.LongestStableRun(ph, 0.05)
	if n < 168 {
		t.Errorf("stable run = %d, want >= 168", n)
	}
	if math.Abs(math.Abs(ph[start])-4*math.Pi/5) > 1e-6 {
		t.Errorf("stable phase = %v, want ±4π/5", ph[start])
	}
}

// accumulateChips is the historical accumulate-form modulator: every
// pulse is added onto zeroed rails. The fill-style modulator must match
// it bit for bit, signed zeros included (phase extraction runs atan2,
// which tells +0 from −0).
func accumulateChips(m *Modulator, chips []byte) []complex128 {
	sps := m.samplesPerSlot
	out := make([]complex128, (len(chips)+1)*sps)
	re := make([]float64, len(out))
	im := make([]float64, len(out))
	for k, c := range chips {
		a := 1.0
		if c == 0 {
			a = -1.0
		}
		rail := re
		if k%2 == 1 {
			rail = im
		}
		for i, p := range m.pulse {
			rail[k*sps+i] += a * p
		}
	}
	for i := range out {
		out[i] = complex(re[i], im[i])
	}
	return out
}

func sameBits(a, b []complex128) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

func TestModulateChipsMatchesAccumulateForm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, rate := range []float64{20e6, 40e6} {
		m, err := NewModulator(rate)
		if err != nil {
			t.Fatal(err)
		}
		// A dirty reused buffer must not leak stale samples.
		buf := make([]complex128, 1<<16)
		for i := range buf {
			buf[i] = complex(math.NaN(), math.Inf(-1))
		}
		for _, n := range []int{0, 1, 2, 3, 31, 32, 33, 1000} {
			chips := make([]byte, n)
			for i := range chips {
				chips[i] = byte(rng.Intn(2))
			}
			if i := sameBits(m.ModulateChips(chips), accumulateChips(m, chips)); i >= 0 {
				t.Fatalf("rate %v, %d chips: ModulateChips differs at sample %d", rate, n, i)
			}
		}
		for _, n := range []int{0, 1, 40} {
			data := make([]byte, n)
			rng.Read(data)
			for _, order := range []SymbolOrder{OrderMSBFirst, OrderLSBFirst} {
				want := accumulateChips(m, SpreadSymbols(BytesToSymbols(data, order)))
				if i := sameBits(m.ModulateBytesInto(buf, data, order), want); i >= 0 {
					t.Fatalf("rate %v, %d bytes, order %v: ModulateBytesInto differs at sample %d", rate, n, order, i)
				}
			}
		}
	}
}

func TestModulateIntoZeroAlloc(t *testing.T) {
	m, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, MaxPSDULen)
	buf := m.ModulateBytesInto(nil, data, OrderMSBFirst)
	if n := testing.AllocsPerRun(20, func() {
		buf = m.ModulateBytesInto(buf, data, OrderMSBFirst)
	}); n != 0 {
		t.Fatalf("warm modulate allocates %v times per call", n)
	}
}
