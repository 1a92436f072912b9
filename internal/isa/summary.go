package isa

import (
	"fmt"
	"strings"
)

// String renders an op as compact assembly-like text:
// "QuadLoad a[Seq+32]" or "FPSIMDFMA".
func (o Op) String() string {
	if !o.Class.IsMem() {
		return o.Class.String()
	}
	sign := "+"
	if o.Stride < 0 {
		sign = ""
	}
	s := fmt.Sprintf("%v r%d[%v%s%d]", o.Class, o.Region, o.Pat, sign, o.Stride)
	if o.Offset != 0 {
		s += fmt.Sprintf("@%d", o.Offset)
	}
	return s
}

// Summary renders a human-readable listing of the program: its regions and,
// per loop, the trip count and the body with repeated ops run-length
// folded. It is the disassembly view the bgpasm tool prints.
func (p *Program) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q", p.Name)
	if p.Group != "" {
		fmt.Fprintf(&b, " (group %q)", p.Group)
	}
	b.WriteString("\n")
	if len(p.Regions) > 0 {
		b.WriteString("regions:\n")
		for i, r := range p.Regions {
			fmt.Fprintf(&b, "  r%-2d %-12s %10d bytes\n", i, r.Name, r.Size)
		}
	}
	mix := p.DynamicMix()
	fmt.Fprintf(&b, "dynamic: %d ops, %d flops, %.1f%% SIMD of FP\n",
		mix.Total(), mix.Flops(), 100*mix.SIMDShare())
	for _, l := range p.Loops {
		fmt.Fprintf(&b, "loop %-24s x%-10d", l.Name, l.Trips)
		b.WriteString(foldBody(l.Body))
		b.WriteString("\n")
	}
	return b.String()
}

// foldBody renders a loop body with identical consecutive ops folded as
// "3×FPFMA".
func foldBody(body []Op) string {
	var parts []string
	for i := 0; i < len(body); {
		j := i
		for j < len(body) && body[j] == body[i] {
			j++
		}
		if n := j - i; n > 1 {
			parts = append(parts, fmt.Sprintf("%d×%v", n, body[i]))
		} else {
			parts = append(parts, body[i].String())
		}
		i = j
	}
	return strings.Join(parts, "; ")
}
