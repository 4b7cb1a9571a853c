package core

import (
	"bytes"
	"testing"

	"symbee/internal/zigbee"
)

// A payload whose PSDU length would be the codeword 0x67 gets one
// non-codeword pad byte, and the padded PPDU is what gets modulated.
func TestAppendPPDUPadsCodewordLength(t *testing.T) {
	payload := bytes.Repeat([]byte{Bit1Byte}, int(Bit0Byte)-zigbee.FCSLen)
	ppdu, err := AppendPPDU(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := ppdu[zigbee.PreambleLen+1]; got != Bit0Byte+1 {
		t.Fatalf("PHR = 0x%02X, want 0x%02X", got, Bit0Byte+1)
	}
	body, err := zigbee.ParsePPDU(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte{}, payload...), 0); !bytes.Equal(body, want) {
		t.Fatal("padded PSDU does not carry the payload plus one zero byte")
	}
}

// PayloadToSignalInto reproduces PayloadToSignal, reports the same
// error for an unbuildable PPDU, and allocates nothing once its
// buffer is large enough.
func TestPayloadToSignalInto(t *testing.T) {
	l := mustLink(t, Params20(), 0)
	buf := make([]complex128, 0, 1<<18)
	for _, n := range []int{1, 40, int(Bit0Byte) - zigbee.FCSLen} {
		payload := bytes.Repeat([]byte{Bit0Byte, Bit1Byte, 0x12}, n)[:n]
		want, err := l.PayloadToSignal(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.PayloadToSignalInto(buf, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || &got[0] != &buf[:1][0] {
			t.Fatalf("%d bytes: got %d samples, want %d in the caller's buffer", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d bytes: sample %d differs", n, i)
			}
		}
	}
	long := make([]byte, zigbee.MaxPSDULen)
	_, errA := l.PayloadToSignal(long)
	_, errB := l.PayloadToSignalInto(buf, long)
	if errA == nil || errB == nil || errA.Error() != errB.Error() {
		t.Fatalf("oversized payload: errors %v / %v", errA, errB)
	}
	payload := make([]byte, 60)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := l.PayloadToSignalInto(buf, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm PayloadToSignalInto allocates %v times per call", n)
	}
}
