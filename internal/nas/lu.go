package nas

import (
	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
	"bgpsim/internal/mpi"
)

// LU: the LU solver benchmark — SSOR iterations over a block 5×5 system.
// Each iteration evaluates the right-hand side, forms the Jacobian blocks,
// and performs lower- and upper-triangular wavefront sweeps whose data
// dependences serialize both the inner loops and the ranks (a software
// pipeline of small messages along the rank order).
//
// The triangular sweeps are recurrence-bound and stay scalar; only the
// right-hand-side evaluation vectorizes, so LU's profile is FMA-dominated
// with a small SIMD fraction (Figure 6).

const (
	luPointsC = 19000
	luIters   = 3
)

func init() {
	register(&Benchmark{
		Name:        "lu",
		Description: "LU solver: SSOR wavefront sweeps with pipelined communication",
		RanksFor:    identityRanks,
		Build:       buildLU,
	})
}

func buildLU(cfg Config) (*App, error) {
	pts := perRank(luPointsC, cfg.Class, cfg.Ranks, 512)

	k := &compiler.Kernel{
		Name: "lu",
		Arrays: []compiler.Array{
			{Name: "u", Bytes: uint64(pts) * 8 * 3},
			{Name: "rsd", Bytes: uint64(pts) * 8 * 3},
			{Name: "flux", Bytes: uint64(pts) * 8},
		},
	}
	sweep := func(name string) compiler.Phase {
		return compiler.Phase{Name: name, Loops: []compiler.LoopNest{{
			Name: name, Trips: pts,
			Stmts: []compiler.Stmt{{
				FMA: 9, AddSub: 2, Mul: 1,
				Refs: []compiler.Ref{
					{Array: 1, Pat: isa.Seq, Stride: 24},
					{Array: 0, Pat: isa.Seq, Stride: 24},
					{Array: 1, Pat: isa.Seq, Stride: 24, Store: true},
				},
				Vectorizable: false, // wavefront recurrence
			}},
		}}}
	}
	k.Phases = []compiler.Phase{
		{Name: "rhs", Loops: []compiler.LoopNest{{
			Name: "rhs", Trips: pts,
			Stmts: []compiler.Stmt{{
				AddSub: 4, FMA: 3,
				Refs: []compiler.Ref{
					{Array: 0, Pat: isa.Seq, Stride: 24},
					{Array: 1, Pat: isa.Seq, Stride: 24, Store: true},
				},
				Vectorizable: true,
			}},
		}}},
		{Name: "jac", Loops: []compiler.LoopNest{{
			Name: "jac", Trips: pts,
			Stmts: []compiler.Stmt{{
				FMA: 6, Mul: 2,
				Refs: []compiler.Ref{
					{Array: 0, Pat: isa.Seq, Stride: 24},
					{Array: 2, Pat: isa.Seq, Stride: 8, Store: true},
				},
				Vectorizable: false,
			}},
		}}},
		sweep("blts"),
		sweep("buts"),
	}

	progs, err := CompilePhases(k, cfg)
	if err != nil {
		return nil, err
	}
	ranks := cfg.Ranks
	const pipeBytes = 2048
	body := func(r *mpi.Rank) {
		r.Barrier()
		for it := 0; it < luIters; it++ {
			r.Exec(progs["rhs"])
			r.Exec(progs["jac"])
			// Lower-triangular sweep rides the forward pipeline...
			sweepPipeline(r, ranks, pipeBytes, false)
			r.Exec(progs["blts"])
			// ...and the upper-triangular sweep the reverse one.
			sweepPipeline(r, ranks, pipeBytes, true)
			r.Exec(progs["buts"])
			if it%2 == 1 {
				r.Allreduce(40) // residual norms
			}
		}
		r.Allreduce(40)
	}
	return &App{Name: "lu", Ranks: ranks, Kernel: k, Body: body}, nil
}
