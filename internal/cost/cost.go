// Package cost estimates the hardware, cost and power overheads of the
// upper-tier network — the model behind Table 2 of the paper. Overheads
// are expressed relative to the base system (the QFDBs with their
// hard-wired torus backplanes), which is what the paper reports: the extra
// switches are the only significant addition, and the table answers "how
// much more does the hybrid cost than the bare torus?".
package cost

import (
	"fmt"

	"mtier/internal/topo"
	"mtier/internal/topo/nest"
)

// Model holds per-component cost and power figures. The defaults are
// calibrated so the paper-scale fattree upper tier lands in the same few-
// percent band as Table 2 (~5% cost, ~2% power for u=1).
type Model struct {
	// NodeCost is the unit cost of one QFDB (arbitrary currency units).
	NodeCost float64
	// SwitchCost is the unit cost of one upper-tier switch.
	SwitchCost float64
	// CableCost is the unit cost of one external cable (uplinks and
	// switch-to-switch cables; backplane traces are free).
	CableCost float64
	// NodePower is the power draw of one QFDB in watts.
	NodePower float64
	// SwitchPower is the power draw of one switch in watts.
	SwitchPower float64
	// CablePower is the power draw of one active cable (transceivers).
	CablePower float64
}

// DefaultModel returns the calibrated model.
func DefaultModel() Model {
	return Model{
		NodeCost:    1200,
		SwitchCost:  750,
		CableCost:   4,
		NodePower:   60,
		SwitchPower: 15,
		CablePower:  0.05,
	}
}

// Validate rejects non-positive base-system figures.
func (m Model) Validate() error {
	if m.NodeCost <= 0 || m.NodePower <= 0 {
		return fmt.Errorf("cost: node cost/power must be positive")
	}
	if m.SwitchCost < 0 || m.CableCost < 0 || m.SwitchPower < 0 || m.CablePower < 0 {
		return fmt.Errorf("cost: negative component figures")
	}
	return nil
}

// Estimate is the hardware bill and overhead of one upper-tier design.
type Estimate struct {
	// Nodes is the QFDB population of the base system.
	Nodes int
	// Switches is the upper-tier switch count.
	Switches int
	// Uplinks is the number of node-to-fabric cables.
	Uplinks int
	// FabricCables is the number of switch-to-switch cables.
	FabricCables int
	// CostOverheadPct is the extra cost relative to the base system, in %.
	CostOverheadPct float64
	// PowerOverheadPct is the extra power relative to the base system, in %.
	PowerOverheadPct float64
}

// ForFabric estimates the overhead of attaching the given fabric (with the
// given number of uplinks in use) to a base system of nodes QFDBs.
func ForFabric(fab topo.Fabric, nodes, uplinks int, m Model) (Estimate, error) {
	if err := m.Validate(); err != nil {
		return Estimate{}, err
	}
	if nodes <= 0 || uplinks < 0 {
		return Estimate{}, fmt.Errorf("cost: invalid system size (nodes=%d, uplinks=%d)", nodes, uplinks)
	}
	e := Estimate{
		Nodes:        nodes,
		Switches:     fab.NumSwitches(),
		Uplinks:      uplinks,
		FabricCables: fab.NumSwitchCables(),
	}
	baseCost := float64(nodes) * m.NodeCost
	basePower := float64(nodes) * m.NodePower
	extraCost := float64(e.Switches)*m.SwitchCost + float64(e.Uplinks+e.FabricCables)*m.CableCost
	extraPower := float64(e.Switches)*m.SwitchPower + float64(e.Uplinks+e.FabricCables)*m.CablePower
	e.CostOverheadPct = 100 * extraCost / baseCost
	e.PowerOverheadPct = 100 * extraPower / basePower
	return e, nil
}

// ForNest estimates the overhead of a hybrid topology's upper tier.
func ForNest(n *nest.Nest, m Model) (Estimate, error) {
	return ForFabric(n.Fabric(), n.NumEndpoints(), n.NumUplinks(), m)
}
