// Package channel models the over-the-air substrate the HotNets'13
// testbed provided physically: distance-dependent path loss, block and
// correlated fading, additive white Gaussian noise, carrier frequency
// offset, and a multi-node Medium that ties node geometry to pairwise
// propagation paths (including the tag-reflection paths that make
// backscatter links monostatic).
//
// Conventions: path gains are LINEAR POWER gains (always <= 1 for a
// passive channel); complex channel coefficients are amplitude-domain, so
// a coefficient h scales sample power by |h|^2.
package channel

import (
	"fmt"
	"math"
)

// SpeedOfLight in metres per second.
const SpeedOfLight = 2.99792458e8

// PathLoss converts a link distance into a linear power gain.
type PathLoss interface {
	// Gain returns the linear power gain at the given distance in metres.
	Gain(distanceM float64) float64
}

// The path-loss models share one geometry: distances below
// minDistanceM are clamped to avoid the unphysical near-field
// singularity, and LogDistance is anchored at refDistanceM.
const (
	minDistanceM = 0.1
	refDistanceM = 1.0
)

// FreeSpace is the Friis free-space path loss at a carrier frequency.
type FreeSpace struct {
	FreqHz float64
}

// Gain implements PathLoss: (lambda / (4*pi*d))^2.
func (f FreeSpace) Gain(d float64) float64 {
	d = max(d, minDistanceM)
	lambda := SpeedOfLight / f.FreqHz
	a := lambda / (4 * math.Pi * d)
	return a * a
}

// LogDistance is the log-distance path loss model
// PL(d) = PL(d0) + 10*n*log10(d/d0), expressed as a linear gain, with
// reference distance d0 = 1 m. It is the standard model for indoor
// backscatter deployments (n typically 2 to 4).
type LogDistance struct {
	// RefGain is the linear power gain at the reference distance,
	// e.g. FreeSpace gain at 1 m.
	RefGain float64
	// Exponent is the path loss exponent n (default 2).
	Exponent float64
}

// NewLogDistance returns a log-distance model anchored to free space at
// 1 m for the given carrier frequency, with path loss exponent n.
func NewLogDistance(freqHz, n float64) LogDistance {
	return LogDistance{
		RefGain:  FreeSpace{FreqHz: freqHz}.Gain(refDistanceM),
		Exponent: n,
	}
}

// Gain implements PathLoss.
func (l LogDistance) Gain(d float64) float64 {
	d = max(d, minDistanceM)
	n := l.Exponent
	if n <= 0 {
		n = 2
	}
	return l.RefGain * pow(refDistanceM/d, n)
}

// pow returns math.Pow(x, y) bit for bit. math.Pow keeps its running
// product as a mantissa in [0.5, 1) plus a separate binary exponent:
// x^yf = Exp(yf·Log x) for the fractional part (|yf| <= 0.5), times the
// squaring chain of x over the bits of the integer part, then one
// Ldexp. Scaling by a power of two is exact while a value stays
// normal, so the same multiplications done directly in float64 round
// identically — provided every intermediate (and the result) is a
// normal number. pow takes that direct route and falls back to
// math.Pow for everything else: special operands, y <= 0, y == 0.5
// (which math.Pow answers with Sqrt), huge integer parts, and any
// chain that leaves the normal range.
//
// Both chains are monotone — the squarings p move away from 1 in x's
// direction, and every factor multiplied into a lies on the same side
// of 1 — so a value that leaves the normal range never comes back:
// checking the last square and the result covers every intermediate.
func pow(x, y float64) float64 {
	if !(x >= minNormal && x <= math.MaxFloat64) || x == 1 || !(y > 0 && y < 1<<30) || y == 0.5 {
		return math.Pow(x, y)
	}
	// math.Modf for 0 < y < 2^30: truncation, and an exact difference.
	yi := float64(int64(y))
	yf := y - yi
	a := 1.0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a = math.Exp(yf * math.Log(x))
	}
	p := x
	for i := int64(yi); i != 0; i >>= 1 {
		if i&1 == 1 {
			a *= p
		}
		if i > 1 {
			p *= p
		}
	}
	if !(a >= minNormal && a <= math.MaxFloat64 && p >= minNormal && p <= math.MaxFloat64) {
		return math.Pow(x, y)
	}
	return a
}

// minNormal is the smallest positive normal float64, 2^-1022.
const minNormal = 0x1p-1022

// FixedGain is a PathLoss that ignores distance; useful in unit tests and
// calibrated-link experiments.
type FixedGain float64

// Gain implements PathLoss.
func (g FixedGain) Gain(float64) float64 { return float64(g) }

// PropagationDelaySamples returns the propagation delay over d metres in
// samples at the given sample rate.
func PropagationDelaySamples(d, sampleRate float64) float64 {
	return d / SpeedOfLight * sampleRate
}

// String implementations aid experiment logs.
func (f FreeSpace) String() string {
	return fmt.Sprintf("freespace(%.0f MHz)", f.FreqHz/1e6)
}

func (l LogDistance) String() string {
	return fmt.Sprintf("logdistance(n=%.1f)", l.Exponent)
}
