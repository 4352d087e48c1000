package sigproc

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestBytesToBits(t *testing.T) {
	bits := BytesToBits([]byte{0xA5}, nil)
	want := []byte{1, 0, 1, 0, 0, 1, 0, 1}
	if !bytes.Equal(bits, want) {
		t.Fatalf("got %v, want %v", bits, want)
	}
}

func TestBitsToBytesDropsTail(t *testing.T) {
	bits := []byte{1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1} // 8 + 3 bits
	out := BitsToBytes(bits, nil)
	if len(out) != 1 || out[0] != 0xF0 {
		t.Fatalf("got %v, want [0xF0]", out)
	}
}

func TestBitsRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		bits := BytesToBits(data, nil)
		back := BitsToBytes(bits, nil)
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesToBitsAppends(t *testing.T) {
	dst := []byte{9}
	out := BytesToBits([]byte{0x80}, dst)
	if out[0] != 9 || out[1] != 1 || len(out) != 9 {
		t.Fatalf("append semantics broken: %v", out)
	}
}

func TestPRBS7Period(t *testing.T) {
	p := NewPRBS7(1)
	seen := make(map[uint32]bool)
	// Collect the state cycle by stepping 127 times; all states distinct.
	for i := 0; i < 127; i++ {
		if seen[p.state] {
			t.Fatalf("state repeated after %d steps", i)
		}
		seen[p.state] = true
		p.NextBit()
	}
	if !seen[p.state] {
		t.Fatal("PRBS7 did not return to a seen state after full period")
	}
}

func TestPRBSZeroSeedAvoided(t *testing.T) {
	p := NewPRBS15(0)
	if p.state == 0 {
		t.Fatal("zero seed must be remapped to a nonzero state")
	}
}

func TestPRBSBalanced(t *testing.T) {
	// A maximal-length LFSR emits (2^n-1+1)/2 ones per period; over many
	// periods the ones density approaches 1/2.
	p := NewPRBS15(42)
	n := 32767
	ones := 0
	for i := 0; i < n; i++ {
		ones += int(p.NextBit())
	}
	ratio := float64(ones) / float64(n)
	if ratio < 0.49 || ratio > 0.51 {
		t.Fatalf("ones density %g, want ~0.5", ratio)
	}
}

func TestPRBSFillBits(t *testing.T) {
	p := NewPRBS31(7)
	bits := p.FillBits(nil, 100)
	if len(bits) != 100 {
		t.Fatalf("len = %d", len(bits))
	}
	for _, b := range bits {
		if b > 1 {
			t.Fatalf("bit out of range: %d", b)
		}
	}
}

func TestPRBSFillBytesDeterministic(t *testing.T) {
	a := NewPRBS31(123).FillBytes(nil, 64)
	b := NewPRBS31(123).FillBytes(nil, 64)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must give same sequence")
	}
	c := NewPRBS31(124).FillBytes(nil, 64)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}
