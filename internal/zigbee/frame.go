package zigbee

import (
	"errors"
	"fmt"
)

// PPDU framing constants (IEEE 802.15.4 §6.3).
const (
	// PreambleLen is the number of 0x00 bytes in the synchronization
	// header preamble.
	PreambleLen = 4
	// SFD is the start-of-frame delimiter byte that follows the
	// preamble.
	SFD = 0xA7
	// MaxPSDULen is the maximum PHY payload, 127 bytes (aMaxPHYPacketSize).
	MaxPSDULen = 127
	// FCSLen is the length of the CRC-16 frame check sequence appended
	// to the MAC payload.
	FCSLen = 2
	// MaxPPDULen is the longest PPDU: preamble, SFD, PHR and a
	// maximum-size PSDU.
	MaxPPDULen = PreambleLen + 2 + MaxPSDULen
	// HeaderSymbols is the number of symbols before the PSDU begins:
	// (4 preamble + 1 SFD + 1 PHR) bytes × 2 symbols.
	HeaderSymbols = (PreambleLen + 1 + 1) * 2
)

// Framing errors returned by ParsePPDU and DecodeFrame.
var (
	ErrShortFrame = errors.New("zigbee: frame too short")
	ErrBadSFD     = errors.New("zigbee: start-of-frame delimiter mismatch")
	ErrBadLength  = errors.New("zigbee: PHR length out of range")
	ErrBadFCS     = errors.New("zigbee: frame check sequence mismatch")
)

// CRC16 computes the ITU-T CRC-16 used as the 802.15.4 FCS
// (x^16 + x^12 + x^5 + 1, bit-reversed, zero initial value).
func CRC16(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc ^= uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0x8408
			} else {
				crc >>= 1
			}
		}
	}
	return crc
}

// BuildPPDU assembles the full PHY protocol data unit around payload:
// preamble, SFD, PHR (frame length), payload, and the CRC-16 FCS. The
// payload length including FCS must not exceed MaxPSDULen.
func BuildPPDU(payload []byte) ([]byte, error) {
	return AppendPPDU(make([]byte, 0, PreambleLen+2+len(payload)+FCSLen), payload)
}

// AppendPPDU is BuildPPDU appending the PPDU to dst, so a caller-owned
// buffer can hold it.
func AppendPPDU(dst, payload []byte) ([]byte, error) {
	psduLen := len(payload) + FCSLen
	if psduLen > MaxPSDULen {
		return nil, fmt.Errorf("%w: payload %d + FCS exceeds %d", ErrBadLength, len(payload), MaxPSDULen)
	}
	for i := 0; i < PreambleLen; i++ {
		dst = append(dst, 0x00)
	}
	dst = append(dst, SFD, byte(psduLen))
	dst = append(dst, payload...)
	fcs := CRC16(payload)
	return append(dst, byte(fcs&0xFF), byte(fcs>>8)), nil
}

// ParsePPDU validates a received PPDU byte stream and returns the MAC
// payload (PSDU minus FCS). The input must start at the first preamble
// byte.
func ParsePPDU(ppdu []byte) ([]byte, error) {
	if len(ppdu) < PreambleLen+2+FCSLen {
		return nil, ErrShortFrame
	}
	if ppdu[PreambleLen] != SFD {
		return nil, fmt.Errorf("%w: got 0x%02X", ErrBadSFD, ppdu[PreambleLen])
	}
	psduLen := int(ppdu[PreambleLen+1])
	if psduLen < FCSLen || psduLen > MaxPSDULen {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, psduLen)
	}
	body := ppdu[PreambleLen+2:]
	if len(body) < psduLen {
		return nil, ErrShortFrame
	}
	payload := body[:psduLen-FCSLen]
	fcs := uint16(body[psduLen-FCSLen]) | uint16(body[psduLen-FCSLen+1])<<8
	if CRC16(payload) != fcs {
		return nil, ErrBadFCS
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
}

// Airtime returns the on-air duration in seconds of a PPDU whose MAC
// payload (excluding FCS) is payloadLen bytes.
func Airtime(payloadLen int) float64 {
	totalBytes := PreambleLen + 2 + payloadLen + FCSLen
	return float64(totalBytes) * 2 * SymbolDuration
}
