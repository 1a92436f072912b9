package nas

import (
	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
	"bgpsim/internal/mpi"
)

// CG: the Conjugate Gradient benchmark. Each iteration is a sparse
// matrix-vector product (streaming the matrix values while gathering the
// input vector through the column-index array), two dot-product reductions
// and three vector updates, with a transpose exchange between row and
// column partners of the process grid.
//
// The gather-dominated sparse product cannot be SIMD-ized, so CG stays
// scalar-FMA dominated (Figure 6); only the small vector updates
// vectorize. Its communication partner is distant in rank order, so CG
// sees no intra-node message savings in virtual-node mode.

const (
	// cgNnzC is the nonzeros per rank at class C / 128 ranks: the value
	// and index streams are ~0.96 MB per rank.
	cgNnzC  = 80000
	cgRowsC = 4096
	cgIters = 5
)

func init() {
	register(&Benchmark{
		Name:        "cg",
		Description: "Conjugate Gradient: sparse matrix-vector products with gathers",
		RanksFor:    identityRanks,
		Build:       buildCG,
	})
}

func buildCG(cfg Config) (*App, error) {
	nnz := perRank(cgNnzC, cfg.Class, cfg.Ranks, 2048)
	rows := perRank(cgRowsC, cfg.Class, cfg.Ranks, 256)

	k := &compiler.Kernel{
		Name: "cg",
		Arrays: []compiler.Array{
			{Name: "a", Bytes: uint64(nnz) * 8},
			{Name: "colidx", Bytes: uint64(nnz) * 4},
			{Name: "x", Bytes: uint64(rows) * 8},
			{Name: "p", Bytes: uint64(rows) * 8},
			{Name: "q", Bytes: uint64(rows) * 8},
			{Name: "r", Bytes: uint64(rows) * 8},
			{Name: "z", Bytes: uint64(rows) * 8},
		},
	}
	axpy := func(name string, in1, in2, out compiler.ArrayID) compiler.Phase {
		return compiler.Phase{Name: name, Loops: []compiler.LoopNest{{
			Name: name, Trips: rows,
			Stmts: []compiler.Stmt{{
				FMA: 1, AddSub: 1,
				Refs: []compiler.Ref{
					{Array: in1, Pat: isa.Seq, Stride: 8},
					{Array: in2, Pat: isa.Seq, Stride: 8},
					{Array: out, Pat: isa.Seq, Stride: 8, Store: true},
				},
				Vectorizable: true,
			}},
		}}}
	}
	k.Phases = []compiler.Phase{
		{Name: "spmv", Loops: []compiler.LoopNest{{
			Name: "spmv", Trips: nnz,
			Stmts: []compiler.Stmt{{
				FMA: 1, Int: 1,
				Refs: []compiler.Ref{
					{Array: 0, Pat: isa.Seq, Stride: 8}, // matrix values
					{Array: 1, Pat: isa.Seq, Stride: 4}, // column indexes
					{Array: 3, Pat: isa.Random},         // gather of p
					{Array: 4, Pat: isa.Seq, Stride: 8, Store: true},
				},
				Vectorizable: false,
			}},
		}}},
		{Name: "dot", Loops: []compiler.LoopNest{{
			Name: "dot", Trips: rows,
			Stmts: []compiler.Stmt{{
				FMA: 1,
				Refs: []compiler.Ref{
					{Array: 3, Pat: isa.Seq, Stride: 8},
					{Array: 4, Pat: isa.Seq, Stride: 8},
				},
				Vectorizable: false, // reduction chain
			}},
		}}},
		axpy("axpy-z", 3, 6, 6),
		axpy("axpy-r", 4, 5, 5),
		axpy("axpy-p", 5, 3, 3),
	}

	progs, err := CompilePhases(k, cfg)
	if err != nil {
		return nil, err
	}
	ranks := cfg.Ranks
	exchBytes := int(rows) * 8 / 2
	body := func(r *mpi.Rank) {
		r.Barrier()
		partner := (r.ID() + ranks/2) % ranks
		for it := 0; it < cgIters; it++ {
			r.Exec(progs["spmv"])
			if partner != r.ID() {
				// Transpose exchange with the distant partner.
				r.Send(partner, exchBytes)
				r.Recv(partner)
			}
			r.Exec(progs["dot"])
			r.Allreduce(8)
			r.Exec(progs["axpy-z"])
			r.Exec(progs["axpy-r"])
			r.Exec(progs["axpy-p"])
			r.Allreduce(8)
		}
		r.Allreduce(8) // final norm
	}
	return &App{Name: "cg", Ranks: ranks, Kernel: k, Body: body}, nil
}
