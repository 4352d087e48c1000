package sigproc

// Bit utilities and pseudo-random binary sequences. Frames travel through
// the PHY as []byte; line codes and modulators work on individual bits in
// MSB-first order, matching the on-air order of most backscatter links.

// BytesToBits expands data into one byte per bit (0 or 1), MSB first,
// appending to dst and returning it.
func BytesToBits(data []byte, dst []byte) []byte {
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			dst = append(dst, (b>>uint(i))&1)
		}
	}
	return dst
}

// BitsToBytes packs a bit-per-byte slice (MSB first) into bytes, appending
// to dst and returning it. Trailing bits that do not fill a byte are
// dropped.
func BitsToBytes(bits []byte, dst []byte) []byte {
	for len(bits) >= 8 {
		var b byte
		for i := 0; i < 8; i++ {
			b = b<<1 | (bits[i] & 1)
		}
		dst = append(dst, b)
		bits = bits[8:]
	}
	return dst
}

// PRBS is a linear-feedback shift register pseudo-random bit generator.
// The zero value is not usable; construct with NewPRBS7, NewPRBS15 or
// NewPRBS31.
type PRBS struct {
	state uint32
	taps  uint32
	bits  uint
}

// NewPRBS7 returns a PRBS-7 generator (x^7 + x^6 + 1), period 127.
func NewPRBS7(seed uint32) *PRBS { return newPRBS(seed, 7, 1<<6|1<<5) }

// NewPRBS15 returns a PRBS-15 generator (x^15 + x^14 + 1), period 32767.
func NewPRBS15(seed uint32) *PRBS { return newPRBS(seed, 15, 1<<14|1<<13) }

// NewPRBS31 returns a PRBS-31 generator (x^31 + x^28 + 1).
func NewPRBS31(seed uint32) *PRBS { return newPRBS(seed, 31, 1<<30|1<<27) }

func newPRBS(seed uint32, bits uint, taps uint32) *PRBS {
	mask := uint32(1)<<bits - 1
	s := seed & mask
	if s == 0 {
		s = 1 // all-zero state is the LFSR fixed point; avoid it
	}
	return &PRBS{state: s, taps: taps, bits: bits}
}

// NextBit returns the next pseudo-random bit (0 or 1).
func (p *PRBS) NextBit() byte {
	fb := popcountParity(p.state & p.taps)
	p.state = (p.state<<1 | uint32(fb)) & (uint32(1)<<p.bits - 1)
	return fb
}

// FillBits writes n pseudo-random bits (one per byte) appending to dst.
func (p *PRBS) FillBits(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, p.NextBit())
	}
	return dst
}

// FillBytes writes n pseudo-random bytes appending to dst.
func (p *PRBS) FillBytes(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		var b byte
		for j := 0; j < 8; j++ {
			b = b<<1 | p.NextBit()
		}
		dst = append(dst, b)
	}
	return dst
}

func popcountParity(x uint32) byte {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}
