package netsim

import (
	"fmt"
	"math"

	"repro/internal/simrand"
)

// Topology names the deployment geometries a Scenario can request. The
// reader sits at the origin; tags are placed around it.
const (
	// TopologyGrid lays tags on a square lattice spanning the deployment
	// square [-R, R]^2, the densest regular arrangement a warehouse
	// shelf survey produces.
	TopologyGrid = "grid"
	// TopologyUniformDisc scatters tags uniformly over the disc of
	// radius R (area-uniform, so the edge holds most of the population).
	TopologyUniformDisc = "uniform-disc"
	// TopologyClustered drops cluster centres uniformly in the disc and
	// scatters tags around them with a Gaussian spread — pallets of
	// tagged goods.
	TopologyClustered = "clustered"
	// TopologyCells scatters tags around the reader positions
	// round-robin with a Gaussian spread (ClusterSpreadM) — the
	// multi-reader analogue of clustered, one pallet field per cell.
	// It requires at least one anchor (the scenario's readers).
	TopologyCells = "cells"
)

// Position is a tag location in metres, reader at the origin.
type Position struct {
	X, Y float64
}

// Distance returns the range from the reader (origin).
func (p Position) Distance() float64 { return math.Hypot(p.X, p.Y) }

// PlaceTags returns n deterministic positions for the named topology.
// Randomised topologies draw only from src, so a fixed seed fixes the
// layout. The grid topology is fully deterministic and ignores src.
// anchors supplies the reader positions for TopologyCells; the other
// topologies ignore it.
func PlaceTags(topology string, n int, radiusM float64, clusters int, spreadM float64, anchors []Position, src *simrand.Source) ([]Position, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netsim: tag count %d must be positive", n)
	}
	if radiusM <= 0 {
		return nil, fmt.Errorf("netsim: radius %g must be positive", radiusM)
	}
	if spreadM <= 0 {
		spreadM = radiusM / 8
	}
	switch topology {
	case TopologyGrid:
		return placeGrid(n, radiusM), nil
	case TopologyUniformDisc:
		return placeUniformDisc(n, radiusM, src), nil
	case TopologyClustered:
		if clusters <= 0 {
			clusters = 3
		}
		return placeClustered(n, radiusM, clusters, spreadM, src), nil
	case TopologyCells:
		if len(anchors) == 0 {
			return nil, fmt.Errorf("netsim: topology %q needs at least one reader anchor", TopologyCells)
		}
		return placeAnchored(n, anchors, spreadM, src), nil
	default:
		return nil, fmt.Errorf("netsim: unknown topology %q (want %s, %s, %s or %s)",
			topology, TopologyGrid, TopologyUniformDisc, TopologyClustered, TopologyCells)
	}
}

// placeGrid fills a ceil(sqrt(n)) lattice over [-R, R]^2 row-major. A
// cell landing on the origin is harmless: the path loss model clamps
// distances below 0.1 m.
func placeGrid(n int, r float64) []Position {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	out := make([]Position, 0, n)
	for i := 0; i < side && len(out) < n; i++ {
		for j := 0; j < side && len(out) < n; j++ {
			// Cell centres: side points evenly spread across [-r, r].
			x := -r + (2*r)*(float64(j)+0.5)/float64(side)
			y := -r + (2*r)*(float64(i)+0.5)/float64(side)
			out = append(out, Position{X: x, Y: y})
		}
	}
	return out
}

func placeUniformDisc(n int, r float64, src *simrand.Source) []Position {
	out := make([]Position, n)
	for i := range out {
		// Area-uniform: radius ~ r*sqrt(u).
		rad := r * math.Sqrt(src.Float64())
		th := 2 * math.Pi * src.Float64()
		out[i] = Position{X: rad * math.Cos(th), Y: rad * math.Sin(th)}
	}
	return out
}

func placeClustered(n int, r float64, clusters int, spread float64, src *simrand.Source) []Position {
	centres := placeUniformDisc(clusters, r*0.75, src)
	out := make([]Position, n)
	for i := range out {
		c := centres[i%clusters]
		p := Position{
			X: c.X + src.Gaussian(0, spread),
			Y: c.Y + src.Gaussian(0, spread),
		}
		// Keep the deployment inside the disc so the radius parameter
		// stays meaningful for range experiments.
		if d := p.Distance(); d > r {
			scale := r / d
			p.X *= scale
			p.Y *= scale
		}
		out[i] = p
	}
	return out
}

// placeAnchored scatters tags round-robin around fixed anchor points
// (reader positions) with a Gaussian spread. Unlike placeClustered the
// centres are not random, so the deployment mirrors the reader cells
// exactly.
func placeAnchored(n int, anchors []Position, spread float64, src *simrand.Source) []Position {
	out := make([]Position, n)
	for i := range out {
		c := anchors[i%len(anchors)]
		out[i] = Position{
			X: c.X + src.Gaussian(0, spread),
			Y: c.Y + src.Gaussian(0, spread),
		}
	}
	return out
}
