package nas

import (
	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
	"bgpsim/internal/mpi"
)

// SP: the Scalar Penta-diagonal solver — Beam-Warming approximate
// factorization with ADI line solves in each of the three dimensions per
// iteration, on a square process grid (the paper runs it with 121 of 128
// processes for this reason).
//
// The line solves are forward/backward recurrences and stay scalar; the
// right-hand-side evaluation vectorizes, so SP shows an FMA-dominated
// profile with a modest SIMD fraction (Figure 6).

const (
	spPointsC = 25000
	spIters   = 3
)

func init() {
	register(&Benchmark{
		Name:        "sp",
		Description: "Scalar Penta-diagonal: ADI line solves on a square process grid",
		RanksFor:    squareRanks,
		Build:       buildSP,
	})
}

func buildSP(cfg Config) (*App, error) {
	ranks := squareRanks(cfg.Ranks)
	pts := perRank(spPointsC, cfg.Class, ranks, 512)

	k := &compiler.Kernel{
		Name: "sp",
		Arrays: []compiler.Array{
			{Name: "u", Bytes: uint64(pts) * 8 * 2},
			{Name: "rhs", Bytes: uint64(pts) * 8 * 2},
			{Name: "lhs", Bytes: uint64(pts) * 8},
		},
	}
	solve := func(name string, pat isa.Pattern, stride int64) compiler.Phase {
		return compiler.Phase{Name: name, Loops: []compiler.LoopNest{{
			Name: name, Trips: pts,
			Stmts: []compiler.Stmt{{
				FMA: 4, AddSub: 1,
				Refs: []compiler.Ref{
					{Array: 2, Pat: pat, Stride: stride},
					{Array: 1, Pat: pat, Stride: stride},
					{Array: 1, Pat: pat, Stride: stride, Store: true},
				},
				Vectorizable: false, // line recurrence
			}},
		}}}
	}
	k.Phases = []compiler.Phase{
		{Name: "rhs", Loops: []compiler.LoopNest{{
			Name: "rhs", Trips: pts,
			Stmts: []compiler.Stmt{{
				AddSub: 4, FMA: 2, Mul: 1,
				Refs: []compiler.Ref{
					{Array: 0, Pat: isa.Seq, Stride: 16},
					{Array: 1, Pat: isa.Seq, Stride: 16, Store: true},
				},
				Vectorizable: true,
			}},
		}}},
		solve("xsolve", isa.Seq, 16),
		solve("ysolve", isa.Strided, 512),
		solve("zsolve", isa.Strided, 2048),
		{Name: "linediv", Loops: []compiler.LoopNest{{
			Name: "linediv", Trips: pts / 32,
			Stmts: []compiler.Stmt{{
				Div: 2, FMA: 1,
				Refs: []compiler.Ref{
					{Array: 2, Pat: isa.Seq, Stride: 256},
				},
				Vectorizable: false,
			}},
		}}},
	}

	progs, err := CompilePhases(k, cfg)
	if err != nil {
		return nil, err
	}
	faceBytes := int(surface(pts)) * 8
	body := func(r *mpi.Rank) {
		r.Barrier()
		for it := 0; it < spIters; it++ {
			r.Exec(progs["rhs"])
			for _, dim := range []string{"xsolve", "ysolve", "zsolve"} {
				r.Exec(progs[dim])
				haloExchange2D(r, ranks, faceBytes)
			}
			r.Exec(progs["linediv"])
			r.Allreduce(40)
		}
		r.Allreduce(40)
	}
	return &App{Name: "sp", Ranks: ranks, Kernel: k, Body: body}, nil
}
