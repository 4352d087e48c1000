package feedback

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simrand"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{SamplesPerBit: 8, Code: CodeManchester}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{SamplesPerBit: 0}).Validate(); err == nil {
		t.Fatal("zero SamplesPerBit must fail")
	}
	if err := (Config{SamplesPerBit: 1, Code: CodeManchester}).Validate(); err == nil {
		t.Fatal("Manchester with 1 sample/bit must fail")
	}
	if err := (Config{SamplesPerBit: 4, Code: Code(9)}).Validate(); err == nil {
		t.Fatal("unknown code must fail")
	}
}

func TestBitsPerSecond(t *testing.T) {
	c := Config{SamplesPerBit: 1000}
	if got := c.BitsPerSecond(1e6); got != 1000 {
		t.Fatalf("rate = %g", got)
	}
	if (Config{}).BitsPerSecond(1e6) != 0 {
		t.Fatal("invalid config should report 0 rate")
	}
}

func TestAppendStatesNRZ(t *testing.T) {
	c := Config{SamplesPerBit: 3, Code: CodeNRZ}
	states := c.AppendStates(nil, []byte{1, 0})
	want := []byte{1, 1, 1, 0, 0, 0}
	if !bytes.Equal(states, want) {
		t.Fatalf("states = %v", states)
	}
}

func TestAppendStatesManchester(t *testing.T) {
	c := Config{SamplesPerBit: 4, Code: CodeManchester}
	states := c.AppendStates(nil, []byte{1, 0})
	want := []byte{1, 1, 0, 0, 0, 0, 1, 1}
	if !bytes.Equal(states, want) {
		t.Fatalf("states = %v", states)
	}
}

func TestAppendStatesManchesterOddLength(t *testing.T) {
	c := Config{SamplesPerBit: 5, Code: CodeManchester}
	states := c.AppendStates(nil, []byte{1})
	if len(states) != 5 {
		t.Fatalf("len = %d, want 5 (bit period preserved)", len(states))
	}
	if states[0] != 1 || states[4] != 0 {
		t.Fatalf("states = %v", states)
	}
}

func TestAppendIdleStates(t *testing.T) {
	states := AppendIdleStates(nil, 4)
	if !bytes.Equal(states, []byte{0, 0, 0, 0}) {
		t.Fatalf("states = %v", states)
	}
}

func TestNormalizeBasic(t *testing.T) {
	rx := []float64{2, 4, 6}
	tx := []float64{1, 2, 3}
	norm := Normalize(rx, tx, 0, nil)
	for _, v := range norm {
		if math.Abs(v-2) > 1e-12 {
			t.Fatalf("norm = %v, want all 2", norm)
		}
	}
}

func TestNormalizeFloorHolds(t *testing.T) {
	rx := []float64{2, 100, 4}
	tx := []float64{1, 0, 2}
	norm := Normalize(rx, tx, 0.5, nil)
	if norm[1] != norm[0] {
		t.Fatalf("sub-floor sample must hold previous value: %v", norm)
	}
}

func TestNormalizePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Normalize([]float64{1}, []float64{1, 2}, 0, nil)
}

// synthNorm builds a normalised stream for given bits with additive
// Gaussian noise: absorb level 1.0, reflect level 1.0+delta.
func synthNorm(c Config, bits []byte, delta, sigma float64, seed uint64) []float64 {
	states := c.AppendStates(nil, bits)
	src := simrand.New(seed)
	out := make([]float64, len(states))
	for i, s := range states {
		v := 1.0
		if s == StateReflect {
			v += delta
		}
		out[i] = v + src.Gaussian(0, sigma)
	}
	return out
}

// decodeAll slices every whole bit period of norm through DecodeOne.
func decodeAll(c Config, norm []float64, threshold float64) []byte {
	var bits []byte
	for i := 0; i+c.SamplesPerBit <= len(norm); i += c.SamplesPerBit {
		bit, _ := c.DecodeOne(norm[i:i+c.SamplesPerBit], threshold)
		bits = append(bits, bit)
	}
	return bits
}

func TestDecodeBitsCleanBothCodes(t *testing.T) {
	src := simrand.New(1)
	bits := make([]byte, 64)
	for i := range bits {
		bits[i] = src.Bit()
	}
	for _, code := range []Code{CodeManchester, CodeNRZ} {
		c := Config{SamplesPerBit: 16, Code: code}
		norm := synthNorm(c, bits, 0.1, 0, 2)
		got := decodeAll(c, norm, 1.05)
		if !bytes.Equal(got, bits) {
			t.Fatalf("%v: clean decode failed", code)
		}
	}
}

func TestDecodeBitsNoisyAveragingWins(t *testing.T) {
	// At sigma comparable to delta, per-sample decisions would be bad,
	// but integrating 256 samples/bit must make errors vanishingly rare.
	src := simrand.New(3)
	bits := make([]byte, 200)
	for i := range bits {
		bits[i] = src.Bit()
	}
	c := Config{SamplesPerBit: 256, Code: CodeManchester}
	norm := synthNorm(c, bits, 0.05, 0.05, 4)
	got := decodeAll(c, norm, 0)
	if errs := countErrs(got, bits); errs != 0 {
		t.Fatalf("256x averaging: %d/200 errors", errs)
	}
}

func TestDecodeBitsRateBERTradeoff(t *testing.T) {
	// Same noise, shorter bit period -> strictly more errors.
	mkBits := func(n int) []byte {
		src := simrand.New(5)
		b := make([]byte, n)
		for i := range b {
			b[i] = src.Bit()
		}
		return b
	}
	berAt := func(spb int) float64 {
		c := Config{SamplesPerBit: spb, Code: CodeManchester}
		bits := mkBits(4000)
		norm := synthNorm(c, bits, 0.02, 0.15, 6)
		got := decodeAll(c, norm, 0)
		return float64(countErrs(got, bits)) / float64(len(bits))
	}
	fast := berAt(8)
	slow := berAt(128)
	if slow >= fast {
		t.Fatalf("averaging must reduce BER: slow %g vs fast %g", slow, fast)
	}
}

func countErrs(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	e := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			e++
		}
	}
	return e
}

func TestDecodeOneMargin(t *testing.T) {
	c := Config{SamplesPerBit: 8, Code: CodeManchester}
	norm := synthNorm(c, []byte{1}, 0.2, 0, 7)
	bit, margin := c.DecodeOne(norm, 0)
	if bit != 1 {
		t.Fatalf("bit = %d", bit)
	}
	if math.Abs(margin-0.2) > 1e-9 {
		t.Fatalf("margin = %g, want 0.2", margin)
	}
	// Short input.
	if b, m := c.DecodeOne(norm[:3], 0); b != 0 || m != 0 {
		t.Fatal("short input must return zeros")
	}
}

func TestDecodeOneNRZ(t *testing.T) {
	c := Config{SamplesPerBit: 4, Code: CodeNRZ}
	norm := []float64{1.2, 1.2, 1.2, 1.2}
	bit, margin := c.DecodeOne(norm, 1.1)
	if bit != 1 || math.Abs(margin-0.1) > 1e-9 {
		t.Fatalf("bit=%d margin=%g", bit, margin)
	}
	bit, margin = c.DecodeOne([]float64{1, 1, 1, 1}, 1.1)
	if bit != 0 || math.Abs(margin-0.1) > 1e-9 {
		t.Fatalf("bit=%d margin=%g", bit, margin)
	}
}

func TestEstimateThreshold(t *testing.T) {
	c := Config{SamplesPerBit: 8, Code: CodeNRZ}
	// Pilot: alternating states.
	norm := synthNorm(c, []byte{1, 0, 1, 0}, 0.2, 0.001, 8)
	thr := c.EstimateThreshold(norm)
	if thr < 1.05 || thr > 1.15 {
		t.Fatalf("threshold = %g, want ~1.1", thr)
	}
	if c.EstimateThreshold(nil) != 0 {
		t.Fatal("empty stream threshold must be 0")
	}
}

func TestSNREstimateTracksTruth(t *testing.T) {
	c := Config{SamplesPerBit: 64, Code: CodeNRZ}
	src := simrand.New(9)
	bits := make([]byte, 400)
	for i := range bits {
		bits[i] = src.Bit()
	}
	delta, sigma := 0.1, 0.05
	norm := synthNorm(c, bits, delta, sigma, 10)
	got := c.SNREstimate(norm, bits)
	want := delta * delta / (4 * sigma * sigma)
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("SNR estimate %g, want ~%g", got, want)
	}
}

func TestSNREstimateManchester(t *testing.T) {
	c := Config{SamplesPerBit: 64, Code: CodeManchester}
	src := simrand.New(11)
	bits := make([]byte, 400)
	for i := range bits {
		bits[i] = src.Bit()
	}
	norm := synthNorm(c, bits, 0.1, 0.05, 12)
	got := c.SNREstimate(norm, bits)
	want := 0.1 * 0.1 / (4 * 0.05 * 0.05)
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("SNR estimate %g, want ~%g", got, want)
	}
}

func TestSNREstimateMissingClass(t *testing.T) {
	c := Config{SamplesPerBit: 8, Code: CodeNRZ}
	norm := synthNorm(c, []byte{1, 1, 1}, 0.1, 0.01, 13)
	if c.SNREstimate(norm, []byte{1, 1, 1}) != 0 {
		t.Fatal("single-class stream must return 0")
	}
}

func TestQFunc(t *testing.T) {
	if math.Abs(QFunc(0)-0.5) > 1e-12 {
		t.Fatalf("Q(0) = %g", QFunc(0))
	}
	if got := QFunc(3); math.Abs(got-0.00135) > 1e-4 {
		t.Fatalf("Q(3) = %g", got)
	}
	if QFunc(10) > 1e-20 {
		t.Fatal("Q(10) should be tiny")
	}
}

func TestTheoreticalBERShape(t *testing.T) {
	// More averaging -> lower BER.
	b1 := TheoreticalBER(0.1, 0.5, 16)
	b2 := TheoreticalBER(0.1, 0.5, 256)
	if b2 >= b1 {
		t.Fatalf("BER must fall with averaging: %g -> %g", b1, b2)
	}
	if TheoreticalBER(0, 1, 16) != 0.5 {
		t.Fatal("zero separation must give 0.5")
	}
	if TheoreticalBER(1, 0, 16) != 0 {
		t.Fatal("zero noise must give 0")
	}
}

func TestManchesterBERMatchesMonteCarlo(t *testing.T) {
	delta, sigma := 0.05, 0.2
	const spb = 64
	c := Config{SamplesPerBit: spb, Code: CodeManchester}
	src := simrand.New(17)
	const nBits = 30000
	bits := make([]byte, nBits)
	for i := range bits {
		bits[i] = src.Bit()
	}
	norm := synthNorm(c, bits, delta, sigma, 18)
	got := decodeAll(c, norm, 0)
	empirical := float64(countErrs(got, bits)) / nBits
	analytic := ManchesterBER(delta, sigma, spb)
	if empirical < analytic*0.7 || empirical > analytic*1.4 {
		t.Fatalf("Manchester BER: empirical %g vs analytic %g", empirical, analytic)
	}
}

func TestManchesterBEREdges(t *testing.T) {
	if ManchesterBER(0, 1, 8) != 0.5 || ManchesterBER(1, 1, 1) != 0.5 {
		t.Fatal("degenerate inputs must give 0.5")
	}
	if ManchesterBER(1, 0, 8) != 0 {
		t.Fatal("noiseless must give 0")
	}
}

func TestCodeString(t *testing.T) {
	if CodeManchester.String() != "manchester" || CodeNRZ.String() != "nrz" || Code(9).String() == "" {
		t.Fatal("Code.String broken")
	}
}

// Property: states round-trip through the decoder for any bits at high
// SNR.
func TestStatesDecodeRoundTripProperty(t *testing.T) {
	f := func(data []byte, codeRaw bool) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 64 {
			data = data[:64]
		}
		bits := make([]byte, len(data))
		for i, b := range data {
			bits[i] = b & 1
		}
		code := CodeManchester
		if codeRaw {
			code = CodeNRZ
		}
		c := Config{SamplesPerBit: 8, Code: code}
		norm := synthNorm(c, bits, 0.3, 0, 99)
		got := decodeAll(c, norm, 1.15)
		return bytes.Equal(got, bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
