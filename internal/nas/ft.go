package nas

import (
	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
	"bgpsim/internal/mpi"
)

// FT: the 3-D FFT PDE benchmark. Each time step applies a 1-D FFT pass
// along each dimension with a full transpose (personalized all-to-all)
// between passes, then a point-wise evolution in frequency space.
//
// FT's butterflies are fully data parallel — with -qarch=440d its profile
// is dominated by SIMD add-subtract and SIMD FMA (Figures 6 and 7). It
// also has the largest per-rank footprint in the suite and no neighbour
// locality in its communication, which is why its DDR-traffic ratio in
// virtual-node mode exceeds 4× (Figure 12).

const (
	// ftPointsC is the complex points per rank at class C / 128 ranks:
	// two 60k-point buffers × 16 B ≈ 1.9 MB per rank — just inside a
	// private 2 MB L3, just outside a quarter share of the 8 MB node L3
	// once inbound transpose traffic competes for it.
	ftPointsC = 60000
	ftSteps   = 1
)

func init() {
	register(&Benchmark{
		Name:        "ft",
		Description: "3-D FFT PDE: butterfly passes with all-to-all transposes",
		RanksFor:    identityRanks,
		Build:       buildFT,
	})
}

func buildFT(cfg Config) (*App, error) {
	pts := perRank(ftPointsC, cfg.Class, cfg.Ranks, 1024)
	bufBytes := uint64(pts) * 16 // complex doubles

	k := &compiler.Kernel{
		Name: "ft",
		Arrays: []compiler.Array{
			{Name: "u0", Bytes: bufBytes},
			{Name: "u1", Bytes: bufBytes},
			{Name: "twiddle", Bytes: 64 << 10},
		},
	}
	butterflyStmt := func(strideIn int64, pat isa.Pattern) compiler.Stmt {
		return compiler.Stmt{
			// Complex radix-2 butterfly with twiddle multiply: the
			// classic ~10 real flops per butterfly, expressed as
			// adds/subs on both components plus fused complex
			// multiplies.
			AddSub: 5, FMA: 3, Mul: 1,
			Refs: []compiler.Ref{
				{Array: 0, Pat: pat, Stride: strideIn},
				{Array: 2, Pat: isa.Seq, Stride: 16},
				{Array: 1, Pat: isa.Seq, Stride: 16, Store: true},
			},
			Vectorizable: true,
		}
	}
	k.Phases = []compiler.Phase{
		// X pass streams unit-stride; Y and Z passes walk columns.
		{Name: "fftx", Loops: []compiler.LoopNest{{
			Name: "fftx", Trips: pts,
			Stmts: []compiler.Stmt{butterflyStmt(16, isa.Seq)},
		}}},
		{Name: "ffty", Loops: []compiler.LoopNest{{
			Name: "ffty", Trips: pts,
			Stmts: []compiler.Stmt{butterflyStmt(1024, isa.Strided)},
		}}},
		{Name: "fftz", Loops: []compiler.LoopNest{{
			Name: "fftz", Trips: pts,
			Stmts: []compiler.Stmt{butterflyStmt(4096, isa.Strided)},
		}}},
		{Name: "evolve", Loops: []compiler.LoopNest{{
			Name: "evolve", Trips: pts,
			Stmts: []compiler.Stmt{{
				Mul: 2, AddSub: 1, FMA: 1,
				Refs: []compiler.Ref{
					{Array: 1, Pat: isa.Seq, Stride: 16},
					{Array: 0, Pat: isa.Seq, Stride: 16, Store: true},
				},
				Vectorizable: true,
			}},
		}}},
	}

	progs, err := CompilePhases(k, cfg)
	if err != nil {
		return nil, err
	}

	ranks := cfg.Ranks
	transposeBytes := int(bufBytes) / ranks
	if transposeBytes < 256 {
		transposeBytes = 256
	}
	body := func(r *mpi.Rank) {
		r.Barrier()
		for step := 0; step < ftSteps; step++ {
			r.Exec(progs["fftx"])
			r.Alltoall(transposeBytes)
			r.Exec(progs["ffty"])
			r.Alltoall(transposeBytes)
			r.Exec(progs["fftz"])
			r.Exec(progs["evolve"])
			r.Allreduce(16) // checksum
		}
	}
	return &App{Name: "ft", Ranks: ranks, Kernel: k, Body: body}, nil
}
