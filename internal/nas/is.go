package nas

import (
	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
	"bgpsim/internal/mpi"
)

// IS: the Integer Sort benchmark. Each iteration counts keys into local
// buckets, agrees on bucket boundaries by reduction, redistributes keys
// with a personalized all-to-all, and scatters the received keys into
// their ranked positions.
//
// IS is integer- and memory-dominated: its few floating-point operations
// (rank-weight computations and verification sums) are scalar FMAs, giving
// it the FMA-dominated profile of Figure 6 at a tiny absolute MFLOPS. The
// random scatter over a large key range plus all-to-all communication make
// it, with FT, the benchmark whose DDR traffic grows more than 4× in
// virtual-node mode (Figure 12).

const (
	// isKeysC is the keys per rank at class C / 128 ranks: key and
	// bucket arrays of ~1.1 MB each.
	isKeysC = 120000
	isIters = 2
)

func init() {
	register(&Benchmark{
		Name:        "is",
		Description: "Integer Sort: bucket counting, all-to-all key exchange, scatter",
		RanksFor:    identityRanks,
		Build:       buildIS,
	})
}

func buildIS(cfg Config) (*App, error) {
	keys := perRank(isKeysC, cfg.Class, cfg.Ranks, 4096)

	k := &compiler.Kernel{
		Name: "is",
		Arrays: []compiler.Array{
			{Name: "keys", Bytes: uint64(keys) * 8},
			{Name: "buckets", Bytes: uint64(keys) * 8},
			{Name: "counts", Bytes: 16 << 10},
		},
	}
	k.Phases = []compiler.Phase{
		{Name: "count", Loops: []compiler.LoopNest{{
			Name: "count", Trips: keys,
			Stmts: []compiler.Stmt{{
				Int: 3,
				Refs: []compiler.Ref{
					{Array: 0, Pat: isa.Seq, Stride: 8},
					{Array: 2, Pat: isa.Random, Store: true},
				},
				Vectorizable: false,
			}},
		}}},
		{Name: "scatter", Loops: []compiler.LoopNest{{
			Name: "scatter", Trips: keys,
			Stmts: []compiler.Stmt{{
				Int: 2,
				Refs: []compiler.Ref{
					{Array: 0, Pat: isa.Seq, Stride: 8},
					{Array: 1, Pat: isa.Random, Store: true},
				},
				Vectorizable: false,
			}},
		}}},
		{Name: "fpwork", Loops: []compiler.LoopNest{{
			Name: "fpwork", Trips: keys / 40,
			Stmts: []compiler.Stmt{{
				FMA: 2, AddSub: 1,
				Refs: []compiler.Ref{
					{Array: 2, Pat: isa.Seq, Stride: 8},
				},
				Vectorizable: false,
			}},
		}}},
	}

	progs, err := CompilePhases(k, cfg)
	if err != nil {
		return nil, err
	}
	ranks := cfg.Ranks
	exchBytes := int(keys) * 8 / ranks
	if exchBytes < 256 {
		exchBytes = 256
	}
	body := func(r *mpi.Rank) {
		r.Barrier()
		for it := 0; it < isIters; it++ {
			r.Exec(progs["count"])
			r.Allreduce(1024) // bucket boundaries
			r.Alltoall(exchBytes)
			r.Exec(progs["scatter"])
			r.Exec(progs["fpwork"])
		}
		r.Allreduce(8) // verification
	}
	return &App{Name: "is", Ranks: ranks, Kernel: k, Body: body}, nil
}
