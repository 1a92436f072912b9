package nas

import (
	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
	"bgpsim/internal/mpi"
)

// BT: the Block Tri-diagonal solver — like SP an ADI factorization on a
// square process grid, but with dense 5×5 block operations per grid point:
// block matrix-vector multiplies and block back-substitutions, plus a
// Gaussian block inversion per line.
//
// The block solves are recurrences along each line and stay scalar, giving
// BT the FMA-heavy profile of Figure 6; its per-point arithmetic density is
// the highest of the suite, so it is the least memory-bound of the solvers.

const (
	btPointsC = 12000
	btIters   = 3
)

func init() {
	register(&Benchmark{
		Name:        "bt",
		Description: "Block Tri-diagonal: 5×5 block ADI solves on a square process grid",
		RanksFor:    squareRanks,
		Build:       buildBT,
	})
}

func buildBT(cfg Config) (*App, error) {
	ranks := squareRanks(cfg.Ranks)
	pts := perRank(btPointsC, cfg.Class, ranks, 256)

	k := &compiler.Kernel{
		Name: "bt",
		Arrays: []compiler.Array{
			{Name: "u", Bytes: uint64(pts) * 8 * 5},
			{Name: "rhs", Bytes: uint64(pts) * 8 * 5},
			{Name: "ablock", Bytes: uint64(pts) * 8 * 3},
		},
	}
	solve := func(name string, pat isa.Pattern, stride int64) compiler.Phase {
		return compiler.Phase{Name: name, Loops: []compiler.LoopNest{{
			Name: name, Trips: pts,
			Stmts: []compiler.Stmt{{
				// 5×5 block times 5-vector, fused.
				FMA: 12, Mul: 2,
				Refs: []compiler.Ref{
					{Array: 2, Pat: pat, Stride: stride},
					{Array: 1, Pat: pat, Stride: stride},
					{Array: 1, Pat: pat, Stride: stride, Store: true},
				},
				Vectorizable: false, // block recurrence along the line
			}},
		}}}
	}
	k.Phases = []compiler.Phase{
		{Name: "rhs", Loops: []compiler.LoopNest{{
			Name: "rhs", Trips: pts,
			Stmts: []compiler.Stmt{{
				AddSub: 4, FMA: 2,
				Refs: []compiler.Ref{
					{Array: 0, Pat: isa.Seq, Stride: 40},
					{Array: 1, Pat: isa.Seq, Stride: 40, Store: true},
				},
				Vectorizable: true,
			}},
		}}},
		solve("xsolve", isa.Seq, 24),
		solve("ysolve", isa.Strided, 768),
		solve("zsolve", isa.Strided, 3072),
		{Name: "blockinv", Loops: []compiler.LoopNest{{
			Name: "blockinv", Trips: pts / 24,
			Stmts: []compiler.Stmt{{
				Div: 5, FMA: 10, Mul: 2,
				Refs: []compiler.Ref{
					{Array: 2, Pat: isa.Seq, Stride: 192},
				},
				Vectorizable: false,
			}},
		}}},
	}

	progs, err := CompilePhases(k, cfg)
	if err != nil {
		return nil, err
	}
	faceBytes := int(surface(pts)) * 8 * 3 // three flow variables per face point
	body := func(r *mpi.Rank) {
		r.Barrier()
		for it := 0; it < btIters; it++ {
			r.Exec(progs["rhs"])
			for _, dim := range []string{"xsolve", "ysolve", "zsolve"} {
				r.Exec(progs[dim])
				haloExchange2D(r, ranks, faceBytes)
			}
			r.Exec(progs["blockinv"])
			r.Allreduce(40)
		}
		r.Allreduce(40)
	}
	return &App{Name: "bt", Ranks: ranks, Kernel: k, Body: body}, nil
}
