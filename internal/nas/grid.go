package nas

import "bgpsim/internal/mpi"

// Process-grid helpers. The NAS benchmarks decompose their domains over a
// logical process grid; with the default Blue Gene/P XYZT placement,
// neighbouring ranks in the grid's fastest dimension land on the same node
// in virtual-node mode, which is why neighbour exchanges partially stay
// inside the shared L3 (§VIII / Figure 12).

// dims3 factors n into the most cubic px ≥ py ≥ pz grid.
func dims3(n int) (px, py, pz int) {
	best := [3]int{n, 1, 1}
	bestSpread := n
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		rest := n / a
		for b := a; b*b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			if spread := c - a; spread < bestSpread {
				bestSpread = spread
				best = [3]int{c, b, a}
			}
		}
	}
	return best[0], best[1], best[2]
}

// coord3 maps a rank to grid coordinates with x fastest.
func coord3(rank, px, py int) (x, y, z int) {
	return rank % px, rank / px % py, rank / (px * py)
}

// rankAt3 maps grid coordinates back to a rank.
func rankAt3(x, y, z, px, py int) int { return x + px*(y+py*z) }

// neighbor3 returns the periodic neighbour of rank in dimension dim
// (0=x, 1=y, 2=z) and direction dir (+1/-1).
func neighbor3(rank, dim, dir, px, py, pz int) int {
	x, y, z := coord3(rank, px, py)
	switch dim {
	case 0:
		x = (x + dir + px) % px
	case 1:
		y = (y + dir + py) % py
	default:
		z = (z + dir + pz) % pz
	}
	return rankAt3(x, y, z, px, py)
}

// HaloExchange3D performs a face exchange with both neighbours in every
// dimension of the most cubic 3-D rank grid: the ubiquitous
// stencil-boundary pattern (MG's, and the workload DSL's halo3d op).
// bytesPerFace is the message size per face. Eager sends precede receives,
// so the pattern cannot deadlock.
func HaloExchange3D(r *mpi.Rank, ranks, bytesPerFace int) {
	px, py, pz := dims3(ranks)
	dimsSize := [3]int{px, py, pz}
	for dim := 0; dim < 3; dim++ {
		if dimsSize[dim] == 1 {
			continue
		}
		up := neighbor3(r.ID(), dim, +1, px, py, pz)
		down := neighbor3(r.ID(), dim, -1, px, py, pz)
		r.Send(up, bytesPerFace)
		r.Send(down, bytesPerFace)
		r.Recv(down)
		r.Recv(up)
	}
}

// dims2 factors n into the most square px ≥ py grid.
func dims2(n int) (px, py int) {
	best := [2]int{n, 1}
	for a := 1; a*a <= n; a++ {
		if n%a == 0 {
			best = [2]int{n / a, a}
		}
	}
	return best[0], best[1]
}

// haloExchange2D exchanges faces with the four neighbours of a 2-D
// periodic process grid (the SP/BT square grids).
func haloExchange2D(r *mpi.Rank, ranks, bytesPerFace int) {
	px, py := dims2(ranks)
	x, y := r.ID()%px, r.ID()/px
	at := func(x, y int) int { return (x+px)%px + px*((y+py)%py) }
	if px > 1 {
		r.Send(at(x+1, y), bytesPerFace)
		r.Send(at(x-1, y), bytesPerFace)
		r.Recv(at(x-1, y))
		r.Recv(at(x+1, y))
	}
	if py > 1 {
		r.Send(at(x, y+1), bytesPerFace)
		r.Send(at(x, y-1), bytesPerFace)
		r.Recv(at(x, y-1))
		r.Recv(at(x, y+1))
	}
}

// sweepPipeline receives from upstream and forwards downstream in rank
// order — the LU wavefront pattern. The receive precedes the send so the
// wavefront's serialization propagates through the logical clocks.
func sweepPipeline(r *mpi.Rank, ranks, bytes int, reverse bool) {
	id := r.ID()
	up, down := id-1, id+1
	if reverse {
		up, down = id+1, id-1
	}
	if up >= 0 && up < ranks {
		r.Recv(up)
	}
	if down >= 0 && down < ranks {
		r.Send(down, bytes)
	}
}
