// Command mtcost reproduces Table 2 of the paper: upper-tier switch counts
// and estimated cost/power overheads for every hybrid configuration, plus
// the standalone fattree reference.
//
// Usage:
//
//	mtcost -n 131072                       # paper scale
//	mtcost -n 8192 -switchcost 900 -csv    # custom model, CSV output
package main

import (
	"flag"
	"os"

	"mtier/internal/cli"
	"mtier/internal/core"
	"mtier/internal/cost"
)

func main() {
	var (
		n       = flag.Int("n", 8192, "total number of QFDBs (endpoints)")
		csv     = flag.Bool("csv", false, "emit CSV")
		jsonOut = flag.Bool("json", false, "emit the table as a schema'd JSON document")
	)
	m := cost.DefaultModel()
	flag.Float64Var(&m.NodeCost, "nodecost", m.NodeCost, "unit cost of one QFDB")
	flag.Float64Var(&m.SwitchCost, "switchcost", m.SwitchCost, "unit cost of one switch")
	flag.Float64Var(&m.CableCost, "cablecost", m.CableCost, "unit cost of one cable")
	flag.Float64Var(&m.NodePower, "nodepower", m.NodePower, "power of one QFDB (W)")
	flag.Float64Var(&m.SwitchPower, "switchpower", m.SwitchPower, "power of one switch (W)")
	flag.Float64Var(&m.CablePower, "cablepower", m.CablePower, "power of one cable (W)")
	p := cli.New("mtcost", flag.CommandLine)
	flag.Parse()
	p.Start(0)

	tab, err := core.Table2(*n, m)
	p.Check(err)
	switch {
	case *jsonOut:
		err = tab.WriteJSON(os.Stdout, "mtier/cost-record/v1")
	case *csv:
		err = tab.WriteCSV(os.Stdout)
	default:
		err = tab.WriteText(os.Stdout)
	}
	p.Exit(err)
}
