package nas

import (
	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
	"bgpsim/internal/mpi"
)

// EP: the Embarrassingly Parallel benchmark. Each rank generates Gaussian
// pairs by the acceptance-rejection method — long dependent chains of
// multiply-adds, squares and the occasional divide from the logarithm and
// square-root evaluations — and tallies them into small count buckets.
// Communication is only the final reductions.
//
// The random-number recurrences are serial chains the SIMD pass cannot
// pair, so EP stays scalar-FMA dominated at every optimization level
// (Figure 6); its large gains in Figures 9–10 come from FMA fusion and
// overhead elimination alone, and its tiny footprint keeps it cache
// resident everywhere.

const epPairsC = 120000

func init() {
	register(&Benchmark{
		Name:        "ep",
		Description: "Embarrassingly Parallel: Gaussian-pair generation, reductions only",
		RanksFor:    identityRanks,
		Build:       buildEP,
	})
}

func buildEP(cfg Config) (*App, error) {
	pairs := perRank(epPairsC, cfg.Class, cfg.Ranks, 1024)

	k := &compiler.Kernel{
		Name: "ep",
		Arrays: []compiler.Array{
			{Name: "table", Bytes: 64 << 10},
			{Name: "q", Bytes: 16 << 10},
		},
	}
	k.Phases = []compiler.Phase{
		{Name: "pairs", Loops: []compiler.LoopNest{
			{
				Name: "pairs", Trips: pairs,
				Stmts: []compiler.Stmt{{
					// x²+y² and the polynomial parts of log and sqrt:
					// serially dependent multiply-add chains.
					FMA: 10, Mul: 1, Int: 2,
					Refs: []compiler.Ref{
						{Array: 0, Pat: isa.Seq, Stride: 8},
					},
					Vectorizable: false,
				}},
			},
			{
				// The divides of the acceptance-rejection reciprocals
				// are rare: most candidate pairs are rejected early.
				Name: "recips", Trips: pairs / 16,
				Stmts: []compiler.Stmt{{
					Div: 1, FMA: 1,
					Vectorizable: false,
				}},
			},
		}},
		{Name: "tally", Loops: []compiler.LoopNest{{
			Name: "tally", Trips: pairs / 10,
			Stmts: []compiler.Stmt{{
				AddSub: 1, Int: 1,
				Refs: []compiler.Ref{
					{Array: 1, Pat: isa.Random, Store: true},
				},
				Vectorizable: false,
			}},
		}}},
	}

	progs, err := CompilePhases(k, cfg)
	if err != nil {
		return nil, err
	}
	body := func(r *mpi.Rank) {
		r.Barrier()
		r.Exec(progs["pairs"])
		r.Exec(progs["tally"])
		r.Allreduce(80) // bucket counts
		r.Allreduce(16) // sx, sy sums
	}
	return &App{Name: "ep", Ranks: cfg.Ranks, Kernel: k, Body: body}, nil
}
