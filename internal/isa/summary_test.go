package isa

import (
	"strings"
	"testing"
)

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Class: FPFMA}, "FPFMA"},
		{Op{Class: Load, Pat: Seq, Region: 2, Stride: 8}, "Load r2[Seq+8]"},
		{Op{Class: QuadStore, Pat: Strided, Region: 0, Stride: -16}, "QuadStore r0[Strided-16]"},
		{Op{Class: Store, Pat: Random, Region: 1}, "Store r1[Random+0]"},
		{Op{Class: Load, Pat: Seq, Region: 0, Stride: 8, Offset: 24}, "Load r0[Seq+8]@24"},
	}
	for _, tc := range cases {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("Op.String() = %q, want %q", got, tc.want)
		}
	}
}

func TestProgramSummary(t *testing.T) {
	p := &Program{
		Name:    "demo",
		Group:   "g",
		Regions: []Region{{Name: "a", Size: 4096}},
		Loops: []Loop{{
			Name:  "l0",
			Trips: 100,
			Body: []Op{
				{Class: FPFMA}, {Class: FPFMA}, {Class: FPFMA},
				{Class: Load, Pat: Seq, Region: 0, Stride: 8},
			},
		}},
	}
	s := p.Summary()
	for _, want := range []string{
		`program "demo"`,
		`(group "g")`,
		"r0  a",
		"4096 bytes",
		"3×FPFMA",
		"Load r0[Seq+8]",
		"x100",
		"400 ops, 600 flops",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestFoldBodyRunLength(t *testing.T) {
	body := []Op{
		{Class: IntALU}, {Class: IntALU},
		{Class: Branch},
		{Class: IntALU},
	}
	got := foldBody(body)
	if got != "2×IntALU; Branch; IntALU" {
		t.Errorf("foldBody = %q", got)
	}
}
