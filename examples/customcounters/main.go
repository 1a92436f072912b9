// Customcounters shows the counter toolchain below the one-call facade:
// building a partition by hand, instrumenting individual code regions with
// the interface library's Start/Stop sets, programming a threshold
// interrupt through the UPC's memory-mapped registers, and mining the
// binary dumps with the post-processing tools.
//
//	go run ./examples/customcounters
package main

import (
	"fmt"
	"log"
	"os"

	"bgpsim/internal/bgpctr"
	"bgpsim/internal/compiler"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/nas"
	"bgpsim/internal/postproc"
	"bgpsim/internal/upc"
)

func main() {
	log.SetFlags(0)

	// A 2-node partition in virtual-node mode (8 ranks).
	m := machine.New(2, machine.VNM, machine.DefaultParams())

	// Program a threshold interrupt on node 0 before the run: fire when
	// the node's DDR read-line counter crosses 2000. Configuration
	// goes through the memory-mapped register window, as a system
	// service on the real chip would do it.
	n0 := m.Nodes[0]
	ddrIdx := upc.EventIndex(upc.Mode2, "BGP_DDR_READ_LINES")
	n0.UPC.SetInterruptHandler(func(counter int, value uint64) {
		name := upc.EventName(upc.MakeEventID(upc.Mode2, counter))
		fmt.Printf("threshold interrupt: %s reached %d\n", name, value)
	})
	must(n0.UPC.Store64(upc.RegConfigBase+8*uint64(ddrIdx), upc.CfgEdgeRise|upc.CfgIntEnable))
	must(n0.UPC.Store64(upc.RegThresholdBase+8*uint64(ddrIdx), 2_000))

	// Build CG's phases so we can bracket the sparse matrix-vector
	// product separately from the vector updates.
	bench, err := nas.ByName("cg")
	if err != nil {
		log.Fatal(err)
	}
	app, err := bench.Build(nas.Config{
		Class: nas.ClassW,
		Ranks: 8,
		Opts:  compiler.Options{Level: compiler.O5, Arch440d: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	job, err := mpi.NewJob(m, app.Ranks)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "bgpc-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// InstrumentRegions wraps the whole application as set 0 and lets
	// the node's monitoring rank bracket extra regions: here the full
	// benchmark run is re-bracketed as set 1 by core 0 of each node,
	// the "single monitoring thread" usage of the paper's §I.
	const wholeRunSet = 1
	dumps, err := bgpctr.InstrumentRegions(job, func(r *mpi.Rank, s *bgpctr.Session) {
		if r.CoreID() == 0 {
			s.Start(wholeRunSet)
		}
		app.Body(r)
		if r.CoreID() == 0 {
			s.Stop(wholeRunSet)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	// BGP_Finalize's per-node binary files, as bgpmine reads them.
	if err := bgpctr.WriteDumps(dir, dumps); err != nil {
		log.Fatal(err)
	}

	// Mine the dumps: per-counter statistics and derived metrics.
	analysis, err := postproc.Analyze(dumps)
	if err != nil {
		log.Fatal(err)
	}
	for _, set := range []int{bgpctr.WholeAppSet, wholeRunSet} {
		metrics, err := postproc.Compute(analysis, set, fmt.Sprintf("cg.set%d", set))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("set %d: %.3f ms, %.1f MFLOPS, %.1f MB DDR traffic\n",
			set, 1e3*metrics.ExecSeconds, metrics.MFLOPS,
			float64(metrics.DDRTrafficBytes)/1e6)
	}

	// Raw per-event statistics, exactly what bgpmine -all prints.
	fma := analysis.Event(0, "BGP_NODE_FPU_FMA")
	fmt.Printf("BGP_NODE_FPU_FMA across %d monitoring node(s): min %d, max %d, mean %.0f\n",
		fma.Nodes, fma.Min, fma.Max, fma.Mean)

	// The dumps on disk round-trip through the public reader.
	files, _ := os.ReadDir(dir)
	fmt.Printf("%d binary dump files written to %s\n", len(files), dir)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
