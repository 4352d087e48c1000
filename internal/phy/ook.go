package phy

import (
	"fmt"

	"repro/internal/sigproc"
)

// OOK is the forward-link on-off-keying modem. Unlike textbook OOK, the
// "off" chip does not fully extinguish the carrier: the reader keeps
// (1-Depth) of the amplitude flowing so the tag stays powered and the
// backscatter feedback channel has a carrier to reflect during every
// chip — the same trick RFID readers' PIE encoding uses.
//
// High chips have amplitude 1; callers scale the waveform to their
// transmit power. The zero value modulates at 4 samples/chip, depth 0.75.
type OOK struct {
	// SamplesPerChip sets the chip oversampling factor (default 4).
	SamplesPerChip int
	// Depth in (0, 1] is the modulation depth: low chips have amplitude
	// 1-Depth. Default 0.75.
	Depth float64
}

func (o OOK) sps() int {
	if o.SamplesPerChip <= 0 {
		return 4
	}
	return o.SamplesPerChip
}

func (o OOK) depth() float64 {
	if o.Depth <= 0 || o.Depth > 1 {
		return 0.75
	}
	return o.Depth
}

// levelHigh is the amplitude of a high chip.
const levelHigh = 1.0

// LevelHigh returns the amplitude of a high chip.
func (o OOK) LevelHigh() float64 { return levelHigh }

// LevelLow returns the amplitude of a low chip.
func (o OOK) LevelLow() float64 { return levelHigh * (1 - o.depth()) }

// MeanPower returns the average transmit power assuming balanced chips.
func (o OOK) MeanPower() float64 {
	h, l := o.LevelHigh(), o.LevelLow()
	return (h*h + l*l) / 2
}

// SamplesPerChipN returns the effective oversampling factor.
func (o OOK) SamplesPerChipN() int { return o.sps() }

// AppendChips appends the baseband waveform for the given chips to dst
// and returns it. Chips are 0/1 values, one per byte.
func (o OOK) AppendChips(dst sigproc.IQ, chips []byte) sigproc.IQ {
	hi := complex(o.LevelHigh(), 0)
	lo := complex(o.LevelLow(), 0)
	n := o.sps()
	for _, c := range chips {
		v := lo
		if c&1 == 1 {
			v = hi
		}
		for i := 0; i < n; i++ {
			dst = append(dst, v)
		}
	}
	return dst
}

// AppendIdle appends nChips of unmodulated carrier at the high level,
// used for inter-frame gaps where the reader still powers the tag.
func (o OOK) AppendIdle(dst sigproc.IQ, nChips int) sigproc.IQ {
	hi := complex(o.LevelHigh(), 0)
	for i := 0; i < nChips*o.sps(); i++ {
		dst = append(dst, hi)
	}
	return dst
}

// NumSamples returns the waveform length for nChips chips.
func (o OOK) NumSamples(nChips int) int { return nChips * o.sps() }

// ChipLevels averages an envelope sample stream into per-chip levels,
// appending to dst and returning it. Trailing samples that do not fill a
// chip are ignored. The offset argument skips samples before the first
// chip boundary (from preamble sync).
func (o OOK) ChipLevels(env []float64, offset int, dst []float64) []float64 {
	n := o.sps()
	if offset < 0 {
		offset = 0
	}
	for i := offset; i+n <= len(env); i += n {
		var s float64
		for _, v := range env[i : i+n] {
			s += v
		}
		dst = append(dst, s/float64(n))
	}
	return dst
}

// SliceThreshold returns the decision threshold midway between the two
// chip levels, scaled by the given channel amplitude gain.
func (o OOK) SliceThreshold(channelAmp float64) float64 {
	return (o.LevelHigh() + o.LevelLow()) / 2 * channelAmp
}

// String describes the modem configuration.
func (o OOK) String() string {
	return fmt.Sprintf("ook(sps=%d depth=%.2f)", o.sps(), o.depth())
}

// Rate describes one entry of the forward-link rate table: a chip
// oversampling factor for the FM0-coded forward link. Lower
// SamplesPerChip means more chips (hence bits) per second at the same
// sample rate, at the cost of less energy per chip.
type Rate struct {
	ID             uint8
	Name           string
	SamplesPerChip int
}

// DefaultRates is the simulator's standard 4-entry rate table, ordered
// slowest (most robust) to fastest.
var DefaultRates = []Rate{
	{ID: 0, Name: "0.25x", SamplesPerChip: 16},
	{ID: 1, Name: "0.5x", SamplesPerChip: 8},
	{ID: 2, Name: "1x", SamplesPerChip: 4},
	{ID: 3, Name: "2x", SamplesPerChip: 2},
}

// RateByID looks up a rate in a table by ID.
func RateByID(table []Rate, id uint8) (Rate, error) {
	for _, r := range table {
		if r.ID == id {
			return r, nil
		}
	}
	return Rate{}, fmt.Errorf("phy: unknown rate id %d", id)
}

// BitsPerSecond returns the data rate of r at the given sample rate,
// accounting for FM0's chip expansion.
func (r Rate) BitsPerSecond(sampleRate float64) float64 {
	chipRate := sampleRate / float64(r.SamplesPerChip)
	return chipRate / float64((&FM0{}).ChipsPerBit())
}
