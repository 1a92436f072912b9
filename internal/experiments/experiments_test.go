package experiments

// Shape assertions: every test here checks a qualitative claim of the
// paper's evaluation — who wins, by roughly what factor, where the knees
// fall — against the regenerated figure data. Absolute numbers are not
// asserted (the substrate is a simulator, not the authors' testbed).
//
// The cheap, robust shapes run at QuickScale on every `go test`; the
// cache- and mode-sensitive shapes need the paper's per-rank regime
// (MidScale). Under -short those sweeps drop to a class-W scale-down that
// checks structure only (point counts, orderings, physical invariants) so
// `go test -short ./...` finishes in seconds; the quantitative bands still
// run on the full suite at class B.

import (
	"testing"

	"bgpsim/internal/compiler"
	"bgpsim/internal/nas"
)

// shortScale is the class-W scale-down the -short variants of the slow
// sweeps run at. The per-rank footprints are far from the paper's regime,
// so only structural claims are asserted at this scale.
func shortScale() Scale { return Scale{Class: nas.ClassW, Ranks: 8} }

func TestFig6ProfileShapes(t *testing.T) {
	rows, err := Fig6Profile(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	frac := map[string]map[string]float64{}
	for _, r := range rows {
		frac[r.Benchmark] = r.Fractions
	}
	simd := func(b string) float64 {
		return frac[b]["BGP_NODE_FPU_SIMD_ADD_SUB"] + frac[b]["BGP_NODE_FPU_SIMD_MULT"] +
			frac[b]["BGP_NODE_FPU_SIMD_DIV"] + frac[b]["BGP_NODE_FPU_SIMD_FMA"]
	}

	// MG and FT exploit SIMD add-sub and SIMD FMA extensively.
	for _, b := range []string{"mg", "ft"} {
		if simd(b) < 0.8 {
			t.Errorf("%s SIMD fraction = %.2f, want > 0.8", b, simd(b))
		}
		if frac[b]["BGP_NODE_FPU_SIMD_ADD_SUB"] < frac[b]["BGP_NODE_FPU_SIMD_FMA"]/2 {
			t.Errorf("%s: SIMD add-sub should be a major component", b)
		}
	}
	// The remaining benchmarks are dominated by the scalar FMA.
	for _, b := range []string{"ep", "cg", "is", "lu", "sp", "bt"} {
		fma := frac[b]["BGP_NODE_FPU_FMA"]
		if fma < 0.4 {
			t.Errorf("%s scalar FMA fraction = %.2f, want ≥ 0.4", b, fma)
		}
		if simd(b) > fma {
			t.Errorf("%s: SIMD fraction %.2f exceeds FMA %.2f", b, simd(b), fma)
		}
	}
}

func TestFig78SIMDShapes(t *testing.T) {
	rows, err := Fig910ExecTimes([]string{"ft", "mg"}, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		bench := row.Benchmark
		byOpts := map[compiler.Options]CompilerPoint{}
		for _, p := range row.Points {
			byOpts[p.Opts] = p
		}
		// No SIMD instructions at all without -qarch=440d.
		for _, lv := range []compiler.Level{compiler.O0, compiler.O3, compiler.O4, compiler.O5} {
			if p := byOpts[compiler.Options{Level: lv}]; p.SIMDInstructions != 0 {
				t.Errorf("%s %v: %f SIMD instructions without -qarch=440d", bench, lv, p.SIMDInstructions)
			}
		}
		// SIMD instruction counts grow with the optimization level.
		o3 := byOpts[compiler.Options{Level: compiler.O3, Arch440d: true}]
		o4 := byOpts[compiler.Options{Level: compiler.O4, Arch440d: true}]
		o5 := byOpts[compiler.Options{Level: compiler.O5, Arch440d: true}]
		if !(o3.SIMDInstructions > 0 && o4.SIMDInstructions > o3.SIMDInstructions &&
			o5.SIMDInstructions > o4.SIMDInstructions) {
			t.Errorf("%s: SIMD counts not increasing: %g, %g, %g",
				bench, o3.SIMDInstructions, o4.SIMDInstructions, o5.SIMDInstructions)
		}
		if o5.SIMDShare < 0.85 {
			t.Errorf("%s at -O5 -qarch=440d: share %.2f, want > 0.85", bench, o5.SIMDShare)
		}
	}
}

func TestFig910ExecTimeShapes(t *testing.T) {
	rows, err := Fig910ExecTimes(SuiteNames(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		base := r.Points[0].ExecCycles
		best := base
		for _, p := range r.Points {
			if p.ExecCycles > base+base/20 {
				t.Errorf("%s %v: optimized build 5%%+ slower than baseline (%d vs %d)",
					r.Benchmark, p.Opts, p.ExecCycles, base)
			}
			if p.ExecCycles < best {
				best = p.ExecCycles
			}
		}
		reduction := 1 - float64(best)/float64(base)
		switch r.Benchmark {
		case "ft", "ep", "mg":
			// The compiler-friendly codes gain heavily ("up to 60%").
			if reduction < 0.15 || reduction > 0.75 {
				t.Errorf("%s best-case reduction = %.0f%%, want substantial (15-75%%)",
					r.Benchmark, 100*reduction)
			}
		case "is":
			// Integer sort barely responds to FP-centric optimization.
			if reduction > 0.25 {
				t.Errorf("is reduction = %.0f%%, want small", 100*reduction)
			}
		}
	}
	// FT and EP must benefit more than IS and CG ("other applications
	// benefit lesser").
	red := map[string]float64{}
	for _, r := range rows {
		best := r.Points[0].ExecCycles
		for _, p := range r.Points {
			if p.ExecCycles < best {
				best = p.ExecCycles
			}
		}
		red[r.Benchmark] = 1 - float64(best)/float64(r.Points[0].ExecCycles)
	}
	for _, big := range []string{"ft", "ep"} {
		if red[big] <= red["is"] {
			t.Errorf("reduction(%s)=%.2f not above reduction(is)=%.2f", big, red[big], red["is"])
		}
	}
}

func TestFig11L3Shapes(t *testing.T) {
	if testing.Short() {
		// Class-W scale-down: the quantitative knees need MidScale, but
		// the sweep's structure must hold at any scale.
		rows, err := Fig11L3Sweep([]string{"ft", "mg"}, shortScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if len(r.Points) != len(L3Sizes()) {
				t.Fatalf("%s: %d points, want %d", r.Benchmark, len(r.Points), len(L3Sizes()))
			}
			for k, p := range r.Points {
				if p.L3Bytes != L3Sizes()[k] {
					t.Errorf("%s point %d: L3=%d, want %d", r.Benchmark, k, p.L3Bytes, L3Sizes()[k])
				}
				if p.MissFraction < 0 || p.MissFraction > 1 {
					t.Errorf("%s L3=%d: miss fraction %f out of range", r.Benchmark, p.L3Bytes, p.MissFraction)
				}
				if k > 0 && p.DDRTrafficBytes > r.Points[k-1].DDRTrafficBytes {
					t.Errorf("%s: traffic grew from L3=%d to L3=%d", r.Benchmark, r.Points[k-1].L3Bytes, p.L3Bytes)
				}
			}
			if r.Points[0].MissFraction != 0 {
				t.Errorf("%s: miss fraction %f with the L3 disabled", r.Benchmark, r.Points[0].MissFraction)
			}
			if r.Points[1].DDRTrafficBytes >= r.Points[0].DDRTrafficBytes {
				t.Errorf("%s: a 2MB L3 did not reduce DDR traffic", r.Benchmark)
			}
		}
		return
	}
	rows, err := Fig11L3Sweep(SuiteNames(), MidScale())
	if err != nil {
		t.Fatal(err)
	}
	var drop02, drop24, drop48 []float64
	for _, r := range rows {
		p := r.Points // 0, 2, 4, 6, 8 MB
		t0 := float64(p[0].DDRTrafficBytes)
		t2 := float64(p[1].DDRTrafficBytes)
		t4 := float64(p[2].DDRTrafficBytes)
		t8 := float64(p[4].DDRTrafficBytes)
		if t2 >= t0 {
			t.Errorf("%s: 2MB L3 traffic %.3g not below no-L3 %.3g", r.Benchmark, t2, t0)
		}
		if t4 > t2*1.02 {
			t.Errorf("%s: 4MB traffic %.3g above 2MB %.3g", r.Benchmark, t4, t2)
		}
		drop02 = append(drop02, 1-t2/t0)
		drop24 = append(drop24, 1-t4/t2)
		drop48 = append(drop48, 1-t8/t4)
	}
	// The big wins are 0→2MB and 2→4MB; beyond 4MB the benefit is small.
	if Mean(drop02) < 0.3 {
		t.Errorf("mean 0→2MB reduction %.2f, want ≥ 0.3", Mean(drop02))
	}
	if Mean(drop48) > Mean(drop24) {
		t.Errorf("4→8MB reduction %.2f not below 2→4MB %.2f: 4MB should be the knee",
			Mean(drop48), Mean(drop24))
	}
	if Mean(drop48) > 0.25 {
		t.Errorf("mean 4→8MB reduction %.2f, want small (the paper: 'benefit is very less')", Mean(drop48))
	}
}

func TestFig121314ModeShapes(t *testing.T) {
	if testing.Short() {
		// Class-W scale-down: only the directional claims survive below
		// the paper's per-rank regime (tiny working sets make the
		// per-chip gain graze the 4-core corner).
		rows, err := Fig121314Modes([]string{"ft", "ep"}, shortScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.TrafficRatio <= 1 || r.TrafficRatio > 8 {
				t.Errorf("%s: per-node traffic ratio %.2f, want VNM above SMP/1", r.Benchmark, r.TrafficRatio)
			}
			if r.SlowdownPct < -50 || r.SlowdownPct > 120 {
				t.Errorf("%s: slowdown %.1f%% implausible", r.Benchmark, r.SlowdownPct)
			}
			if r.MFLOPSPerChipGain <= 1 || r.MFLOPSPerChipGain > 4.5 {
				t.Errorf("%s: MFLOPS/chip gain %.2f outside (1, 4.5]", r.Benchmark, r.MFLOPSPerChipGain)
			}
		}
		return
	}
	rows, err := Fig121314Modes(SuiteNames(), MidScale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ModeRow{}
	var ratios, slows, gains []float64
	for _, r := range rows {
		byName[r.Benchmark] = r
		ratios = append(ratios, r.TrafficRatio)
		slows = append(slows, r.SlowdownPct)
		gains = append(gains, r.MFLOPSPerChipGain)
	}

	// Figure 12: ~3x average traffic increase; IS exceeds 4x; the
	// benchmarks with neighbour-local communication stay below ~4x.
	if m := Mean(ratios); m < 2.5 || m > 4.3 {
		t.Errorf("mean traffic ratio %.2f, want ≈3-4", m)
	}
	if byName["is"].TrafficRatio <= 4 {
		t.Errorf("is traffic ratio %.2f, want > 4 (Figure 12)", byName["is"].TrafficRatio)
	}
	for _, b := range []string{"mg", "cg", "sp", "bt"} {
		if byName[b].TrafficRatio > 4.1 {
			t.Errorf("%s traffic ratio %.2f, want ≤ ~4", b, byName[b].TrafficRatio)
		}
	}

	// Figure 13: per-node slowdown around 30% on average, never
	// catastrophic.
	if m := Mean(slows); m < 5 || m > 45 {
		t.Errorf("mean slowdown %.1f%%, want ≈30%% (band 5-45)", m)
	}
	for _, r := range rows {
		if r.SlowdownPct > 120 {
			t.Errorf("%s slowdown %.1f%%: sharing never costs more than ~2x", r.Benchmark, r.SlowdownPct)
		}
	}

	// Figure 14: ~2.5x more MFLOPS per chip from using all four cores.
	if m := Mean(gains); m < 2 || m > 3.8 {
		t.Errorf("mean MFLOPS/chip gain %.2f, want ≈2.5-3.5", m)
	}
	for _, r := range rows {
		if r.MFLOPSPerChipGain < 1 {
			t.Errorf("%s: virtual-node mode must never lose to SMP/1 per chip (%.2f)",
				r.Benchmark, r.MFLOPSPerChipGain)
		}
		if r.MFLOPSPerChipGain > 4.2 {
			t.Errorf("%s: gain %.2f above the 4-core bound", r.Benchmark, r.MFLOPSPerChipGain)
		}
	}
}

func TestScalesAndConfigs(t *testing.T) {
	if FullScale().Ranks != 128 || MidScale().Ranks != 32 {
		t.Error("scale definitions changed")
	}
	if len(CompilerConfigs()) != 7 {
		t.Errorf("compiler study has %d configs, want 7", len(CompilerConfigs()))
	}
	if len(L3Sizes()) != 5 || L3Sizes()[0] != 0 || L3Sizes()[4] != 8<<20 {
		t.Errorf("L3 sweep points = %v", L3Sizes())
	}
	if len(SuiteNames()) != 8 {
		t.Error("suite size")
	}
	if Mean(nil) != 0 || Mean([]float64{2, 4}) != 3 {
		t.Error("Mean broken")
	}
}
