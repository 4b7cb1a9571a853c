package core

import (
	"fmt"

	"symbee/internal/wifi"
	"symbee/internal/zigbee"
)

// Link bundles the full SymBee pipeline: payload encoding, the ZigBee
// PHY transmitter, the WiFi idle-listening front-end and the phase
// decoder. A channel model (package channel) is applied by the caller
// between Transmit* and Receive*.
type Link struct {
	params  Params
	order   zigbee.SymbolOrder
	mod     *zigbee.Modulator
	fe      *wifi.FrontEnd
	decoder *Decoder
}

// NewLink builds a link at the given parameters. compensation is the
// CFO compensation the receiver applies (wifi.CanonicalCompensation when
// the channel model injects a real carrier offset, 0 otherwise).
func NewLink(p Params, compensation float64) (*Link, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mod, err := zigbee.NewModulator(p.SampleRate)
	if err != nil {
		return nil, fmt.Errorf("core: link modulator: %w", err)
	}
	fe, err := wifi.NewFrontEnd(p.SampleRate)
	if err != nil {
		return nil, fmt.Errorf("core: link front-end: %w", err)
	}
	if fe.Lag() != p.Lag {
		return nil, fmt.Errorf("core: lag mismatch: front-end %d, params %d", fe.Lag(), p.Lag)
	}
	dec, err := NewDecoder(p, compensation)
	if err != nil {
		return nil, err
	}
	return &Link{params: p, order: zigbee.OrderMSBFirst, mod: mod, fe: fe, decoder: dec}, nil
}

// Params returns the link's parameter set.
func (l *Link) Params() Params { return l.params }

// Decoder returns the link's phase decoder.
func (l *Link) Decoder() *Decoder { return l.decoder }

// PayloadToSignal wraps SymBee payload bytes in a ZigBee PPDU (see
// AppendPPDU) and modulates it to complex baseband.
func (l *Link) PayloadToSignal(payload []byte) ([]complex128, error) {
	return l.PayloadToSignalInto(nil, payload)
}

// PayloadToSignalInto is PayloadToSignal writing the waveform into
// dst's backing array when its capacity suffices; a warm call with a
// large enough dst allocates nothing.
func (l *Link) PayloadToSignalInto(dst []complex128, payload []byte) ([]complex128, error) {
	var buf [zigbee.MaxPPDULen]byte
	ppdu, err := AppendPPDU(buf[:0], payload)
	if err != nil {
		return nil, err
	}
	return l.mod.ModulateBytesInto(dst, ppdu, l.order), nil
}

// AppendPPDU wraps SymBee payload bytes in a ZigBee PPDU appended to
// dst. When the resulting PHR length byte would itself be a SymBee
// codeword (PSDU length 0x67) the payload is padded by one byte: such
// a PHR is phase-indistinguishable from a preamble bit and would make
// the anchor ambiguous. The pad byte is not a codeword, so both the
// WiFi and ZigBee receivers ignore it. The error is the one
// PayloadToSignal reports, found without modulating anything.
func AppendPPDU(dst, payload []byte) ([]byte, error) {
	if len(payload)+zigbee.FCSLen == int(Bit0Byte) {
		var padded [zigbee.MaxPSDULen]byte
		n := copy(padded[:], payload)
		payload = padded[:n+1]
	}
	return zigbee.AppendPPDU(dst, payload)
}

// TransmitBits modulates a raw SymBee bit string (preamble prepended)
// into one ZigBee packet.
func (l *Link) TransmitBits(bits []byte) ([]complex128, error) {
	payload, err := EncodeBits(bits)
	if err != nil {
		return nil, err
	}
	return l.PayloadToSignal(payload)
}

// TransmitFrame modulates one SymBee frame into one ZigBee packet.
func (l *Link) TransmitFrame(f *Frame) ([]complex128, error) {
	payload, err := EncodeFrame(f)
	if err != nil {
		return nil, err
	}
	return l.PayloadToSignal(payload)
}

// TransmitFrameMAC is TransmitFrame with full IEEE 802.15.4 MAC framing:
// the SymBee codewords ride as the MSDU of a broadcast MAC data frame
// from the given short source address — exactly what a commodity node's
// normal send path produces. The WiFi-side decoder needs no change: the
// MAC header is just nine more non-codeword bytes for the preamble
// capture to skip.
func (l *Link) TransmitFrameMAC(f *Frame, src uint16, macSeq byte) ([]complex128, error) {
	payload, err := EncodeFrame(f)
	if err != nil {
		return nil, err
	}
	ppdu, err := zigbee.BuildDataPPDU(src, macSeq, payload)
	if err != nil {
		return nil, err
	}
	return l.mod.ModulateBytes(ppdu, l.order), nil
}

// Phases runs a received capture through the WiFi idle-listening block.
func (l *Link) Phases(capture []complex128) []float64 {
	return l.fe.PhaseStream(capture)
}

// ReceiveBits decodes n raw SymBee bits from a capture.
func (l *Link) ReceiveBits(capture []complex128, n int) ([]byte, error) {
	return l.decoder.DecodeBits(l.Phases(capture), n)
}

// ReceiveFrame decodes one SymBee frame from a capture.
func (l *Link) ReceiveFrame(capture []complex128) (*Frame, error) {
	return l.decoder.DecodeFrame(l.Phases(capture))
}

// PacketAirtime returns the on-air duration of a ZigBee packet carrying
// nBits SymBee bits (preamble included), in seconds.
func (l *Link) PacketAirtime(nBits int) float64 {
	return zigbee.Airtime(PreambleBits + nBits)
}
