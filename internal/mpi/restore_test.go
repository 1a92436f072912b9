package mpi

import (
	"fmt"
	"testing"

	"bgpsim/internal/isa"
	"bgpsim/internal/machine"
	"bgpsim/internal/statehash"
	"bgpsim/internal/upc"
)

// restoreState writes a window machineState read into the nodes ids of m.
func restoreState(m *machine.Machine, ids []int, w []uint64) {
	for _, id := range ids {
		w = w[statehash.Write(m.Nodes[id], w):]
	}
	if len(w) != 0 {
		panic(fmt.Sprintf("restoreState: %d window words left over", len(w)))
	}
}

// TestStateRestoreContinuesIdentically states the state window's contract
// directly: a machine restored from another's window continues exactly as
// the original does. Machine A runs the first half of a miss-path workload
// (the strided program, which leaves locked detector engines, warm and dirty
// caches); its window is written into a freshly booted B; both run the second
// half (the scatter program, all steals and dirty victims). The windows must
// then agree, and so must every node's UPC reads of every catalog event over
// the second half — node i counts in mode i, so the four nodes read the whole
// catalog. B meets the second half with what the window leaves out as New
// made it (hit hints at way 0, scratch buffers empty) and with the derived
// masks rebuilt from the window, so this is what shows those exclusions safe.
func TestStateRestoreContinuesIdentically(t *testing.T) {
	l3pf := machine.DefaultParams()
	l3pf.Node.L3PrefetchDepth = 2
	noL3 := machine.DefaultParams()
	noL3.Node.L3Bytes = 0
	const nodes, trips = 4, 20_000
	halves := [2]*isa.Program{stridedProgram(trips), scatterProgram(trips)}

	run := func(m *machine.Machine, p *isa.Program) *Job {
		j, err := NewJob(m, m.MaxRanks())
		if err == nil {
			err = j.Run(missPathBody(p))
		}
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// secondHalf counts node i's UPC in mode i over the second half and
	// returns the machine's window and every node's catalog reads.
	secondHalf := func(m *machine.Machine) ([]uint64, [][]uint64) {
		for i, nd := range m.Nodes {
			nd.UPC.SetMode(upc.Mode(i % upc.NumModes))
			nd.UPC.Start()
		}
		j := run(m, halves[1])
		reads := make([][]uint64, len(m.Nodes))
		for i, nd := range m.Nodes {
			nd.UPC.Stop()
			for c := 0; c < upc.NumCounters; c++ {
				if upc.EventName(upc.MakeEventID(nd.UPC.Mode(), c)) != "BGP_RESERVED" {
					reads[i] = append(reads[i], nd.UPC.Read(c))
				}
			}
		}
		return machineState(j), reads
	}

	for _, pc := range []struct {
		name   string
		params machine.Params
	}{
		{"l3", machine.DefaultParams()},
		{"l3pf2", l3pf},
		{"l3off", noL3},
	} {
		for _, mode := range []machine.OpMode{machine.VNM, machine.Dual, machine.SMP4} {
			label := fmt.Sprintf("%s %s", pc.name, mode)
			a := machine.New(nodes, mode, pc.params)
			ja := run(a, halves[0])
			b := machine.New(nodes, mode, pc.params)
			restoreState(b, ja.NodeIDs(), machineState(ja))

			wantState, wantReads := secondHalf(a)
			gotState, gotReads := secondHalf(b)
			diffStates(t, label, wantState, gotState)
			nonzero := 0
			for i := range wantReads {
				for k, v := range wantReads[i] {
					if gotReads[i][k] != v {
						t.Errorf("%s: node %d catalog read %d = %d after restore, %d live", label, i, k, gotReads[i][k], v)
					}
					if v != 0 {
						nonzero++
					}
				}
			}
			if nonzero == 0 {
				t.Fatalf("%s: every UPC read is zero; the second half counted nothing", label)
			}
		}
	}
}
