// Package energy models the battery-free tag's power subsystem: an RF
// harvester with a sensitivity floor and conversion efficiency, and a
// storage capacitor. The reflection coefficient trade-off central to
// the paper appears here: power the tag reflects for feedback is power
// it cannot harvest.
package energy

import (
	"fmt"
	"math"
)

// Harvester converts incident RF power into stored energy.
type Harvester struct {
	// Efficiency is the RF-to-DC conversion efficiency in (0, 1].
	// Typical CMOS rectifiers reach 0.2-0.5 at UHF. Default 0.3.
	Efficiency float64
	// SensitivityW is the minimum incident power that produces any
	// output (rectifier threshold). Default 1 µW (-30 dBm).
	SensitivityW float64
}

func (h Harvester) eff() float64 {
	if h.Efficiency <= 0 || h.Efficiency > 1 {
		return 0.3
	}
	return h.Efficiency
}

func (h Harvester) floor() float64 {
	if h.SensitivityW < 0 {
		return 0
	}
	if h.SensitivityW == 0 {
		return 1e-6
	}
	return h.SensitivityW
}

// OutputPower returns the DC power produced for a given incident RF
// power; zero below the sensitivity floor.
func (h Harvester) OutputPower(incidentW float64) float64 {
	if incidentW < h.floor() {
		return 0
	}
	return incidentW * h.eff()
}

// Harvest returns the energy in joules collected over dt seconds at the
// given incident power.
func (h Harvester) Harvest(incidentW, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	return h.OutputPower(incidentW) * dt
}

// Capacitor is the tag's energy store. Energy bookkeeping is in joules;
// voltage is derived (E = C*V^2/2) for the brown-out check. The stored
// energy is capped at 3.3 V, and below the 1.8 V brown-out threshold
// the tag logic cannot run.
type Capacitor struct {
	// CapacitanceF is the capacitance in farads. Default 100 µF.
	CapacitanceF float64

	energyJ float64
}

// The capacitor's voltage cap and brown-out threshold.
const (
	maxVoltageV = 3.3
	minVoltageV = 1.8
)

func (c *Capacitor) capF() float64 {
	if c.CapacitanceF <= 0 {
		return 100e-6
	}
	return c.CapacitanceF
}

// MaxEnergy returns the storable energy at the voltage cap.
func (c *Capacitor) MaxEnergy() float64 {
	v := maxVoltageV
	return 0.5 * c.capF() * v * v
}

// MinEnergy returns the energy at the brown-out voltage.
func (c *Capacitor) MinEnergy() float64 {
	v := minVoltageV
	return 0.5 * c.capF() * v * v
}

// Energy returns the currently stored energy in joules.
func (c *Capacitor) Energy() float64 { return c.energyJ }

// Voltage returns the current capacitor voltage.
func (c *Capacitor) Voltage() float64 {
	return math.Sqrt(2 * c.energyJ / c.capF())
}

// SetVoltage initialises the store to a given voltage (clamped to the
// cap).
func (c *Capacitor) SetVoltage(v float64) {
	if v < 0 {
		v = 0
	}
	if v > maxVoltageV {
		v = maxVoltageV
	}
	c.energyJ = 0.5 * c.capF() * v * v
}

// Store deposits energy, clamping at the voltage cap. It returns the
// energy actually stored.
func (c *Capacitor) Store(joules float64) float64 {
	if joules <= 0 {
		return 0
	}
	room := c.MaxEnergy() - c.energyJ
	if joules > room {
		joules = room
	}
	c.energyJ += joules
	return joules
}

// Draw removes energy for load consumption. It returns false (drawing
// nothing) if the draw would push the capacitor below the brown-out
// energy — the tag powers off instead of executing partially.
func (c *Capacitor) Draw(joules float64) bool {
	if joules < 0 {
		return false
	}
	if c.energyJ-joules < c.MinEnergy() {
		return false
	}
	c.energyJ -= joules
	return true
}

// Budget simulates the steady-state energy balance of a tag: harvesting
// from incident power while paying circuit consumption, tracking outage
// (time spent browned out).
type Budget struct {
	Harvester Harvester
	Cap       Capacitor
	// CircuitW is the tag's continuous consumption while operating.
	CircuitW float64

	totalT  float64
	outageT float64
}

// Step advances the budget by dt seconds with the given incident RF
// power reaching the harvester (i.e. already reduced by the fraction the
// tag reflected). It returns true if the tag was operational for the
// step.
func (b *Budget) Step(incidentW, dt float64) bool {
	b.Cap.Store(b.Harvester.Harvest(incidentW, dt))
	ok := b.Cap.Draw(b.CircuitW * dt)
	b.totalT += dt
	if !ok {
		b.outageT += dt
	}
	return ok
}

// OutageFraction returns the fraction of simulated time the tag spent
// browned out.
func (b *Budget) OutageFraction() float64 {
	if b.totalT == 0 {
		return 0
	}
	return b.outageT / b.totalT
}

// SplitIncident divides incident RF power at the tag antenna between the
// backscatter modulator and the harvester for a reflection coefficient
// rho in [0, 1]: the modulator re-radiates rho of the power, the
// harvester sees (1-rho). This is THE trade-off knob of the paper: bigger
// rho means a stronger feedback signal and a poorer energy supply.
func SplitIncident(incidentW, rho float64) (reflectedW, harvestableW float64) {
	if rho < 0 {
		rho = 0
	}
	if rho > 1 {
		rho = 1
	}
	return incidentW * rho, incidentW * (1 - rho)
}

// String summarises the harvester for logs.
func (h Harvester) String() string {
	return fmt.Sprintf("harvester(eta=%.2f floor=%.1fuW)", h.eff(), h.floor()*1e6)
}
