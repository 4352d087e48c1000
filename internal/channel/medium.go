package channel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simrand"
)

// FadingKind selects the small-scale model the Medium attaches to each
// pairwise path.
type FadingKind int

// Fading models supported by the Medium.
const (
	FadingNone FadingKind = iota // static, coefficient 1
	FadingRayleigh
	FadingRician
	FadingGaussMarkov
)

// String returns the model name.
func (k FadingKind) String() string {
	switch k {
	case FadingNone:
		return "none"
	case FadingRayleigh:
		return "rayleigh"
	case FadingRician:
		return "rician"
	case FadingGaussMarkov:
		return "gaussmarkov"
	default:
		return fmt.Sprintf("FadingKind(%d)", int(k))
	}
}

// MediumConfig configures a Medium.
type MediumConfig struct {
	// PathLoss converts distance to linear power gain. Defaults to
	// log-distance n=2.5 at 915 MHz (the UHF ISM band the paper's
	// hardware used).
	PathLoss PathLoss
	// Fading selects the small-scale model applied to every path.
	Fading FadingKind
	// RicianK is the K factor when Fading == FadingRician.
	RicianK float64
	// GaussMarkovRho is the block correlation when Fading ==
	// FadingGaussMarkov.
	GaussMarkovRho float64
	// NoisePower is the AWGN power (variance) added per receive sample.
	NoisePower float64
	// Seed drives all fading and noise randomness.
	Seed uint64
}

// Node is a positioned radio in the Medium.
type Node struct {
	Name string
	X, Y float64
}

// Medium holds node geometry and hands out pairwise propagation paths
// with consistent gains and independent fading streams.
type Medium struct {
	cfg   MediumConfig
	src   *simrand.Source
	nodes map[string]Node
	paths map[[2]string]*Path
}

// NewMedium returns an empty Medium with the given configuration.
func NewMedium(cfg MediumConfig) *Medium {
	if cfg.PathLoss == nil {
		cfg.PathLoss = NewLogDistance(915e6, 2.5)
	}
	return &Medium{
		cfg:   cfg,
		src:   simrand.New(cfg.Seed),
		nodes: make(map[string]Node),
		paths: make(map[[2]string]*Path),
	}
}

// AddNode places a node. Re-adding a name moves the node and invalidates
// its cached paths.
func (m *Medium) AddNode(name string, x, y float64) {
	m.nodes[name] = Node{Name: name, X: x, Y: y}
	for k := range m.paths {
		if k[0] == name || k[1] == name {
			delete(m.paths, k)
		}
	}
}

// Nodes returns the node names in deterministic (sorted) order.
func (m *Medium) Nodes() []string {
	out := make([]string, 0, len(m.nodes))
	for n := range m.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Distance returns the Euclidean distance between two nodes. It panics
// if either node is unknown.
func (m *Medium) Distance(a, b string) float64 {
	na, ok := m.nodes[a]
	if !ok {
		panic("channel: unknown node " + a)
	}
	nb, ok := m.nodes[b]
	if !ok {
		panic("channel: unknown node " + b)
	}
	return math.Hypot(na.X-nb.X, na.Y-nb.Y)
}

// Gain returns the linear power gain between two nodes.
func (m *Medium) Gain(a, b string) float64 {
	return m.cfg.PathLoss.Gain(m.Distance(a, b))
}

// Path returns the directed propagation path from a to b, creating it on
// first use. Paths are cached so fading streams evolve consistently
// across blocks. The reverse path is a distinct object (its fading is
// drawn independently; reciprocity holds in mean power via the shared
// gain).
func (m *Medium) Path(a, b string) *Path {
	key := [2]string{a, b}
	if p, ok := m.paths[key]; ok {
		return p
	}
	p := &Path{Gain: m.Gain(a, b)}
	switch m.cfg.Fading {
	case FadingRayleigh:
		p.Fader = NewRayleighFader(m.src)
	case FadingRician:
		p.Fader = NewRicianFader(m.src, m.cfg.RicianK)
	case FadingGaussMarkov:
		p.Fader = NewGaussMarkovFader(m.src, m.cfg.GaussMarkovRho)
	}
	m.paths[key] = p
	return p
}

// BlockStart begins a new coherence block: every cached path draws a new
// fading coefficient.
func (m *Medium) BlockStart() {
	for _, p := range m.paths {
		p.BlockStart()
	}
}

// AddNoise adds receiver AWGN of the configured power to a block in place.
func (m *Medium) AddNoise(x []complex128) {
	m.src.FillNoise(x, m.cfg.NoisePower)
}

// NoisePower returns the configured per-sample noise power.
func (m *Medium) NoisePower() float64 { return m.cfg.NoisePower }
