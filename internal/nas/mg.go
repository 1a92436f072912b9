package nas

import (
	"fmt"

	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
	"bgpsim/internal/mpi"
)

// MG: the MultiGrid benchmark. V-cycles of a 27-point stencil over a grid
// hierarchy — residual evaluation, smoothing, restriction and interpolation
// per level, with a face halo exchange after every stencil sweep and a
// residual-norm allreduce per cycle.
//
// The stencil statements are fully data parallel: MG is one of the two
// benchmarks (with FT) whose dynamic FP profile turns almost entirely into
// SIMD add-subtract and SIMD FMA under -qarch=440d (Figures 6 and 8).

const (
	mgLevels = 4
	mgCycles = 3
	// mgPointsC is the finest-grid points per rank for class C at 128
	// ranks: 32768 points × 8 B × 3 arrays ≈ 0.79 MB plus coarse levels.
	mgPointsC = 32768
)

func init() {
	register(&Benchmark{
		Name:        "mg",
		Description: "MultiGrid: V-cycle Poisson solver, 27-point stencils, halo exchanges",
		RanksFor:    identityRanks,
		Build:       buildMG,
	})
}

func buildMG(cfg Config) (*App, error) {
	pts := make([]int64, mgLevels) // points per rank at each level
	pts[0] = perRank(mgPointsC, cfg.Class, cfg.Ranks, 512)
	for l := 1; l < mgLevels; l++ {
		pts[l] = pts[l-1] / 8
		if pts[l] < 64 {
			pts[l] = 64
		}
	}

	k := &compiler.Kernel{Name: "mg"}
	// Arrays: u and r at every level, v (right-hand side) at the finest.
	uID := make([]compiler.ArrayID, mgLevels)
	rID := make([]compiler.ArrayID, mgLevels)
	addArray := func(name string, bytes uint64) compiler.ArrayID {
		k.Arrays = append(k.Arrays, compiler.Array{Name: name, Bytes: bytes})
		return compiler.ArrayID(len(k.Arrays) - 1)
	}
	for l := 0; l < mgLevels; l++ {
		uID[l] = addArray(fmt.Sprintf("u%d", l), uint64(pts[l])*8)
		rID[l] = addArray(fmt.Sprintf("r%d", l), uint64(pts[l])*8)
	}
	vID := addArray("v", uint64(pts[0])*8)

	for l := 0; l < mgLevels; l++ {
		// resid: r = v - A·u (27-point stencil).
		residRefs := []compiler.Ref{
			{Array: uID[l], Pat: isa.Seq, Stride: 8},
			{Array: rID[l], Pat: isa.Seq, Stride: 8, Store: true},
		}
		if l == 0 {
			residRefs = append(residRefs, compiler.Ref{Array: vID, Pat: isa.Seq, Stride: 8})
		}
		k.Phases = append(k.Phases, compiler.Phase{
			Name: fmt.Sprintf("resid%d", l),
			Loops: []compiler.LoopNest{{
				Name:  fmt.Sprintf("resid%d", l),
				Trips: pts[l],
				Stmts: []compiler.Stmt{{
					AddSub: 8, FMA: 5,
					Refs:         residRefs,
					Vectorizable: true,
				}},
			}},
		})
		// psinv: smoother u += S·r.
		k.Phases = append(k.Phases, compiler.Phase{
			Name: fmt.Sprintf("psinv%d", l),
			Loops: []compiler.LoopNest{{
				Name:  fmt.Sprintf("psinv%d", l),
				Trips: pts[l],
				Stmts: []compiler.Stmt{{
					AddSub: 6, FMA: 4,
					Refs: []compiler.Ref{
						{Array: rID[l], Pat: isa.Seq, Stride: 8},
						{Array: uID[l], Pat: isa.Seq, Stride: 8, Store: true},
					},
					Vectorizable: true,
				}},
			}},
		})
	}
	for l := 0; l < mgLevels-1; l++ {
		// rprj: restrict the residual to the next coarser grid.
		k.Phases = append(k.Phases, compiler.Phase{
			Name: fmt.Sprintf("rprj%d", l),
			Loops: []compiler.LoopNest{{
				Name:  fmt.Sprintf("rprj%d", l),
				Trips: pts[l+1],
				Stmts: []compiler.Stmt{{
					AddSub: 7, FMA: 1,
					Refs: []compiler.Ref{
						{Array: rID[l], Pat: isa.Strided, Stride: 64},
						{Array: rID[l+1], Pat: isa.Seq, Stride: 8, Store: true},
					},
					Vectorizable: true,
				}},
			}},
		})
		// interp: prolongate the coarse correction to the finer grid.
		k.Phases = append(k.Phases, compiler.Phase{
			Name: fmt.Sprintf("interp%d", l),
			Loops: []compiler.LoopNest{{
				Name:  fmt.Sprintf("interp%d", l),
				Trips: pts[l],
				Stmts: []compiler.Stmt{{
					AddSub: 3, FMA: 1,
					Refs: []compiler.Ref{
						{Array: uID[l+1], Pat: isa.Strided, Stride: 64},
						{Array: uID[l], Pat: isa.Seq, Stride: 8, Store: true},
					},
					Vectorizable: true,
				}},
			}},
		})
	}

	progs, err := CompilePhases(k, cfg)
	if err != nil {
		return nil, err
	}

	halo := make([]int, mgLevels)
	for l := 0; l < mgLevels; l++ {
		halo[l] = int(surface(pts[l]) * 8)
	}
	ranks := cfg.Ranks
	body := func(r *mpi.Rank) {
		r.Barrier()
		for cycle := 0; cycle < mgCycles; cycle++ {
			// Down-sweep: residual + restrict to coarser grids.
			for l := 0; l < mgLevels-1; l++ {
				r.Exec(progs[fmt.Sprintf("resid%d", l)])
				HaloExchange3D(r, ranks, halo[l])
				r.Exec(progs[fmt.Sprintf("rprj%d", l)])
			}
			// Coarsest solve.
			r.Exec(progs[fmt.Sprintf("psinv%d", mgLevels-1)])
			// Up-sweep: interpolate + smooth.
			for l := mgLevels - 2; l >= 0; l-- {
				r.Exec(progs[fmt.Sprintf("interp%d", l)])
				HaloExchange3D(r, ranks, halo[l])
				r.Exec(progs[fmt.Sprintf("psinv%d", l)])
			}
			r.Exec(progs["resid0"])
			r.Allreduce(8) // residual norm
		}
		r.Allreduce(8) // verification
	}
	return &App{Name: "mg", Ranks: ranks, Kernel: k, Body: body}, nil
}

// surface approximates the one-face halo size (in elements) of a cubic
// subdomain with the given volume.
func surface(points int64) int64 {
	s := int64(1)
	for s*s*s < points {
		s++
	}
	return s * s
}
