package bench

import (
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/reader"
	"repro/internal/sigproc"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// Arena is the per-worker scratch the cell functions share: reusable
// links, readers, IQ buffers, random sources and row storage. Every
// accessor hands back state that is explicitly reset (reseeded,
// reconfigured, zeroed) before use, so a cell's result is a pure
// function of its own parameters no matter which worker's arena served
// it — reuse saves allocation, never changes output.
type Arena struct {
	src     *simrand.Source
	link    *core.Link
	linkRes core.TransferResult
	payload []byte
	readers map[reader.Config]*reader.Reader

	// Feedback-cell scratch: the carrier/receive blocks, the carrier's
	// envelope, the cached per-bit antenna state patterns, and the
	// per-bit noiseless receive patterns derived from them.
	tx, rx    sigproc.IQ
	txEnv     []float64
	base      [2]sigproc.IQ
	statesCfg feedback.Config
	states    [2][]byte

	// Row storage: rows are carved out of chunked blocks so emitting a
	// row does not allocate. Finished blocks stay alive through the
	// rows that reference them.
	cells []trace.Cell
}

func newArena() *Arena { return &Arena{} }

// reserve starts a fresh storage block when the current one cannot
// hold n more cells, and returns the row's start offset. Finished
// blocks stay alive through the rows that reference them.
func (a *Arena) reserve(n int) int {
	if len(a.cells)+n > cap(a.cells) {
		blockLen := 256
		if n > blockLen {
			blockLen = n
		}
		a.cells = make([]trace.Cell, 0, blockLen)
	}
	return len(a.cells)
}

// Row copies the given cells into arena-backed storage and returns
// them as one table row.
func (a *Arena) Row(vals ...trace.Cell) row {
	start := a.reserve(len(vals))
	a.cells = append(a.cells, vals...)
	return a.cells[start:len(a.cells):len(a.cells)]
}

// Rand returns the arena's random source reseeded to the given seed —
// stream-identical to simrand.New(seed). The source is shared across
// calls; cells that need several concurrent streams must fall back to
// simrand.New for the extras.
func (a *Arena) Rand(seed uint64) *simrand.Source {
	if a.src == nil {
		a.src = simrand.New(seed)
		return a.src
	}
	a.src.Reseed(seed)
	return a.src
}

// Link returns the arena's link configured as cfg — behaviourally
// identical to core.NewLink(cfg), reusing the waveform-sized scratch
// across cells.
func (a *Arena) Link(cfg core.LinkConfig) (*core.Link, error) {
	if a.link == nil {
		l, err := core.NewLink(cfg)
		if err != nil {
			return nil, err
		}
		a.link = l
		return l, nil
	}
	if err := a.link.Reconfigure(cfg); err != nil {
		return nil, err
	}
	return a.link, nil
}

// Reader returns a reset reader for the given configuration, cached per
// configuration so a sweep reuses one instance (and its decoder
// scratch) for all its cells.
func (a *Arena) Reader(cfg reader.Config) (*reader.Reader, error) {
	if rd, ok := a.readers[cfg]; ok {
		rd.Reset()
		return rd, nil
	}
	rd, err := reader.New(cfg)
	if err != nil {
		return nil, err
	}
	if a.readers == nil {
		a.readers = map[reader.Config]*reader.Reader{}
	}
	a.readers[cfg] = rd
	return rd, nil
}

// Payload returns a reusable byte buffer of length n.
func (a *Arena) Payload(n int) []byte {
	if cap(a.payload) < n {
		a.payload = make([]byte, n)
	}
	return a.payload[:n]
}

// IQPair returns the arena's transmit and receive blocks, each of
// length n (contents unspecified; callers fill them).
func (a *Arena) IQPair(n int) (tx, rx sigproc.IQ) {
	if cap(a.tx) < n {
		a.tx = make(sigproc.IQ, n)
	}
	if cap(a.rx) < n {
		a.rx = make(sigproc.IQ, n)
	}
	return a.tx[:n], a.rx[:n]
}

// CarrierEnvelope returns tx's envelope in the arena's carrier-envelope
// scratch (tx.Envelope's values, reallocated only when tx is longer than
// any earlier carrier).
func (a *Arena) CarrierEnvelope(tx sigproc.IQ) []float64 {
	a.txEnv = tx.Envelope(a.txEnv[:0])
	return a.txEnv
}

// BasePair returns two arena blocks of length n for the per-bit
// noiseless receive patterns (contents unspecified; callers fill them).
func (a *Arena) BasePair(n int) (zero, one sigproc.IQ) {
	for i := range a.base {
		if cap(a.base[i]) < n {
			a.base[i] = make(sigproc.IQ, n)
		}
	}
	return a.base[0][:n], a.base[1][:n]
}

// BitStates returns the cached per-sample antenna state patterns for a
// 0 and a 1 feedback bit under the given configuration. The patterns
// depend only on cfg, so caching them hoists the per-bit AppendStates
// work out of BER loops.
func (a *Arena) BitStates(cfg feedback.Config) (zero, one []byte) {
	if a.statesCfg != cfg || a.states[0] == nil {
		a.statesCfg = cfg
		for i := range a.states {
			if cap(a.states[i]) < cfg.SamplesPerBit {
				a.states[i] = make([]byte, 0, cfg.SamplesPerBit)
			}
		}
		a.states[0] = cfg.AppendStates(a.states[0][:0], []byte{0})
		a.states[1] = cfg.AppendStates(a.states[1][:0], []byte{1})
	}
	return a.states[0], a.states[1]
}

// PrewarmFeedback pre-sizes every feedback-cell buffer (carrier and
// receive blocks, the carrier envelope, base patterns, the decoder
// scratch of the reader for cfg) for bit periods up to n samples. A
// sweep whose cells grow the bit period calls this with the sweep
// maximum so buffers are sized once instead of re-allocated at each
// size step.
func (a *Arena) PrewarmFeedback(cfg reader.Config, n int) error {
	a.IQPair(n)
	if cap(a.txEnv) < n {
		a.txEnv = make([]float64, 0, n)
	}
	a.BasePair(n)
	rd, err := a.Reader(cfg)
	if err != nil {
		return err
	}
	rd.Grow(n)
	return nil
}

// RowV is Row for untyped values, converting through trace.V. It boxes
// its arguments, so allocation-sensitive sweeps should build typed
// cells and call Row; the protocol-level experiments use this
// convenience form.
func (a *Arena) RowV(vals ...interface{}) row {
	start := a.reserve(len(vals))
	for _, v := range vals {
		a.cells = append(a.cells, trace.V(v))
	}
	return a.cells[start:len(a.cells):len(a.cells)]
}
