package workload

// Build lowers a decoded Spec to a nas.App: every stochastic parameter is
// resolved from streams derived from the spec seed, class/rank scaling is
// applied exactly the way the NAS builders do, and the result is an
// authored compiler.Kernel plus an SPMD body — indistinguishable, to the
// rest of the system, from a hand-written benchmark. The compile cache,
// batched engine, fast-forwarding and epoch memoization therefore apply
// without modification.

import (
	"fmt"
	"math"

	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
	"bgpsim/internal/mpi"
	"bgpsim/internal/nas"
	"bgpsim/internal/rng"
)

// step is one resolved action of the per-rank body.
type step struct {
	// repeat is the sampled burst length (0 skips the phase this round).
	repeat int
	// prog names the compiled phase program; empty for comm steps.
	prog string
	// op, bytes and root describe a comm step.
	op    CommOp
	bytes int
	root  int
}

// Build compiles the spec for a configuration. The sampled workload shape
// (trip counts, op mixes, burst lengths, message sizes before scaling)
// depends only on (spec, seed); Class and Ranks apply deterministic scaling
// on top, mirroring how the NAS builders divide a fixed per-class problem
// over the process count.
func Build(s *Spec, cfg nas.Config) (*nas.App, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("workload: spec %q: ranks %d < 1", s.Name, cfg.Ranks)
	}
	for i, p := range s.Phases {
		if c := p.Comm; c != nil && c.Root >= cfg.Ranks {
			return nil, fmt.Errorf("workload: spec %q phase[%d] (%s): root %d outside 0..%d",
				s.Name, i, p.Name, c.Root, cfg.Ranks-1)
		}
	}

	// Per-rank linear scale (trips, array footprint) and the 2/3-power
	// surface scale (message sizes), as in nas.perRank/surfaceScaled.
	linear := cfg.Class.Scale() * 128.0 / float64(cfg.Ranks)
	surface := math.Pow(cfg.Class.Scale(), 2.0/3.0)

	// The kernel name carries the spec fingerprint, so progcache keys —
	// sha256 over (isa version, options, kernel IR) — cannot collide
	// across distinct specs even if their sampled IR happened to agree.
	k := &compiler.Kernel{Name: s.Name + "#" + s.Fingerprint()[:12]}
	arrayID := make(map[string]compiler.ArrayID, len(s.Arrays))
	for _, a := range s.Arrays {
		bytes := int64(float64(a.Bytes) * linear)
		if bytes < 4096 {
			bytes = 4096
		}
		arrayID[a.Name] = compiler.ArrayID(len(k.Arrays))
		k.Arrays = append(k.Arrays, compiler.Array{Name: a.Name, Bytes: uint64(bytes)})
	}

	// Resolve every (round, phase) from its own derived stream with a
	// fixed draw order (repeat, then trips, then the five op mixes, then
	// bytes), so insertions elsewhere never shift a phase's samples.
	root := rng.New(s.Seed)
	var steps []step
	for round := 0; round < s.Rounds; round++ {
		for pi := range s.Phases {
			p := &s.Phases[pi]
			stream := root.Derive(uint64(round)<<20 | uint64(pi))
			rep := int(p.Repeat.SampleInt(stream, 0, MaxRepeat))
			switch {
			case p.Compute != nil:
				c := p.Compute
				decay := math.Pow(p.Decay, float64(round))
				trips := c.Trips.SampleInt(stream, 0, maxTrips)
				trips = int64(float64(trips) * linear * decay)
				if trips < 1 {
					trips = 1
				}
				st := compiler.Stmt{
					AddSub:       int(c.AddSub.SampleInt(stream, 0, maxOps)),
					Mul:          int(c.Mul.SampleInt(stream, 0, maxOps)),
					Div:          int(c.Div.SampleInt(stream, 0, maxOps)),
					FMA:          int(c.FMA.SampleInt(stream, 0, maxOps)),
					Int:          int(c.Int.SampleInt(stream, 0, maxOps)),
					Vectorizable: c.Vectorizable,
				}
				for _, ref := range c.Refs {
					st.Refs = append(st.Refs, lowerRef(ref, arrayID[ref.Array])...)
				}
				name := fmt.Sprintf("%s.r%d", p.Name, round)
				k.Phases = append(k.Phases, compiler.Phase{
					Name: name,
					Loops: []compiler.LoopNest{{
						Name:  name,
						Trips: trips,
						Stmts: []compiler.Stmt{st},
					}},
				})
				steps = append(steps, step{repeat: rep, prog: name})
			case p.Comm != nil:
				c := p.Comm
				bytes := c.Bytes.SampleInt(stream, 0, maxCommBytes)
				bytes = int64(float64(bytes) * surface)
				if bytes < 8 {
					bytes = 8
				}
				steps = append(steps, step{repeat: rep, op: c.Op, bytes: int(bytes), root: c.Root})
			}
		}
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}

	progs, err := nas.CompilePhases(k, cfg)
	if err != nil {
		return nil, err
	}

	ranks := cfg.Ranks
	body := func(r *mpi.Rank) {
		r.Barrier()
		for _, st := range steps {
			for i := 0; i < st.repeat; i++ {
				if st.prog != "" {
					r.Exec(progs[st.prog])
					continue
				}
				switch st.op {
				case OpBarrier:
					r.Barrier()
				case OpAllreduce:
					r.Allreduce(st.bytes)
				case OpReduce:
					r.Reduce(st.root, st.bytes)
				case OpBcast:
					r.Bcast(st.root, st.bytes)
				case OpAlltoall:
					r.Alltoall(st.bytes)
				case OpRing:
					ringExchange(r, st.bytes)
				case OpHalo3D:
					nas.HaloExchange3D(r, ranks, st.bytes)
				}
			}
		}
		r.Allreduce(8) // verification, as every NAS body ends
	}
	return &nas.App{
		Name:   s.Name,
		Ranks:  ranks,
		Kernel: k,
		Body:   body,
	}, nil
}

// lowerRef lowers one spec reference to compiler refs. The stencil walk
// expands to a three-point plane pattern: a unit-stride sweep (carrying the
// store flag) plus two plane-strided neighbor reads.
func lowerRef(ref RefSpec, id compiler.ArrayID) []compiler.Ref {
	switch ref.Walk {
	case WalkSeq:
		return []compiler.Ref{{Array: id, Pat: isa.Seq, Stride: ref.Stride, Store: ref.Store}}
	case WalkStrided:
		return []compiler.Ref{{Array: id, Pat: isa.Strided, Stride: ref.Stride, Store: ref.Store}}
	case WalkRandom:
		return []compiler.Ref{{Array: id, Pat: isa.Random, Store: ref.Store}}
	default: // WalkStencil
		return []compiler.Ref{
			{Array: id, Pat: isa.Seq, Stride: 8, Store: ref.Store},
			{Array: id, Pat: isa.Strided, Stride: ref.Stride},
			{Array: id, Pat: isa.Strided, Stride: 2 * ref.Stride},
		}
	}
}

// ringExchange sends to the next rank and receives from the previous —
// the nearest-neighbor point-to-point pattern. Eager sends precede
// receives, so the ring cannot deadlock.
func ringExchange(r *mpi.Rank, bytes int) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.Send((r.ID()+1)%n, bytes)
	r.Recv((r.ID() - 1 + n) % n)
}
