package workload

// Seeded scalar distributions. Every stochastic parameter of a workload
// spec — loop trip counts, FP-mix op counts, message sizes, phase repeat
// (burst) counts — is a Dist sampled from an rng.Source stream derived from
// the spec seed, so a (spec, seed) pair resolves to exactly one concrete
// program on every host (the determinism property tests pin this).
//
// The gamma and weibull families model bursty inter-phase arrivals: heavy
// repeat tails mean a communication phase is sometimes preceded by one
// compute block and sometimes by a burst of them, which is the arrival
// structure the ServeGen-style generators use for client traffic.

import (
	"fmt"
	"math"
	"strconv"

	"bgpsim/internal/rng"
)

// DistKind names a distribution family.
type DistKind string

// The supported families.
const (
	DistConst   DistKind = "const"
	DistUniform DistKind = "uniform"
	DistPoisson DistKind = "poisson"
	DistGamma   DistKind = "gamma"
	DistWeibull DistKind = "weibull"
)

// maxPoissonMean bounds the Knuth sampler's linear cost.
const maxPoissonMean = 1e4

// Dist is one seeded scalar distribution. The YAML spelling is either a
// bare number (a constant) or a flow mapping such as
// {dist: gamma, shape: 2, scale: 1.5, min: 1, max: 8}; Min/Max clamp every
// family and are the required bounds of the uniform family.
type Dist struct {
	// Kind is the family.
	Kind DistKind
	// Value is the constant's value or the poisson mean.
	Value float64
	// Shape and Scale parameterize the gamma and weibull families.
	Shape, Scale float64
	// Min and Max clamp samples; MinSet/MaxSet record presence, because
	// zero is a meaningful bound.
	Min, Max       float64
	MinSet, MaxSet bool
}

// constDist builds a constant.
func constDist(v float64) Dist { return Dist{Kind: DistConst, Value: v} }

// validate checks the family's parameters.
func (d Dist) validate(ctx string) error {
	switch d.Kind {
	case DistConst:
	case DistUniform:
		if !d.MinSet || !d.MaxSet {
			return fmt.Errorf("workload: %s: uniform needs min and max", ctx)
		}
	case DistPoisson:
		if d.Value < 0 {
			return fmt.Errorf("workload: %s: negative poisson mean %g", ctx, d.Value)
		}
		if d.Value > maxPoissonMean {
			return fmt.Errorf("workload: %s: poisson mean %g exceeds %g", ctx, d.Value, maxPoissonMean)
		}
	case DistGamma, DistWeibull:
		if d.Shape <= 0 || d.Scale <= 0 {
			return fmt.Errorf("workload: %s: %s needs positive shape and scale (got %g, %g)",
				ctx, d.Kind, d.Shape, d.Scale)
		}
	default:
		return fmt.Errorf("workload: %s: unknown distribution %q (have const, uniform, poisson, gamma, weibull)",
			ctx, d.Kind)
	}
	if d.MinSet && d.MaxSet && d.Max < d.Min {
		return fmt.Errorf("workload: %s: max %g below min %g", ctx, d.Max, d.Min)
	}
	return nil
}

// Sample draws one value from the stream. The number of stream draws per
// family is deterministic in distribution (rejection loops consume a
// data-dependent but seed-determined count), so samples are reproducible
// given the stream position.
func (d Dist) Sample(r *rng.Source) float64 {
	var v float64
	switch d.Kind {
	case DistConst:
		v = d.Value
	case DistUniform:
		v = d.Min + (d.Max-d.Min)*r.Float64()
	case DistPoisson:
		v = float64(poissonSample(r, d.Value))
	case DistGamma:
		v = d.Scale * gammaSample(r, d.Shape)
	case DistWeibull:
		// Inverse-CDF: scale * (-ln(1-u))^(1/shape).
		v = d.Scale * math.Pow(-math.Log1p(-r.Float64()), 1/d.Shape)
	}
	return d.clamp(v)
}

// clamp applies Min and Max.
func (d Dist) clamp(v float64) float64 {
	if d.MinSet && v < d.Min {
		v = d.Min
	}
	if d.MaxSet && v > d.Max {
		v = d.Max
	}
	return v
}

// SampleInt draws and floors into [lo, hi].
func (d Dist) SampleInt(r *rng.Source, lo, hi int64) int64 {
	return floorInto(d.Sample(r), lo, hi)
}

// upperInt is the largest value SampleInt(·, lo, hi) can draw: a constant's
// value, else Max when set, else hi.
func (d Dist) upperInt(lo, hi int64) int64 {
	v := float64(hi)
	if d.Kind == DistConst {
		v = d.Value
	}
	return floorInto(d.clamp(v), lo, hi)
}

// floorInto floors v into [lo, hi].
func floorInto(v float64, lo, hi int64) int64 {
	i := int64(math.Floor(v))
	if i < lo {
		i = lo
	}
	if i > hi {
		i = hi
	}
	return i
}

// poissonSample is Knuth's product method; the mean is validated ≤
// maxPoissonMean so the loop is short.
func poissonSample(r *rng.Source, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// gammaSample draws from gamma(shape, 1) via Marsaglia–Tsang, boosting
// shapes below one with the standard U^(1/shape) factor.
func gammaSample(r *rng.Source, shape float64) float64 {
	if shape < 1 {
		u := 1 - r.Float64() // (0, 1]
		return gammaSample(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := normalSample(r)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// normalSample is one Box–Muller standard-normal draw.
func normalSample(r *rng.Source) float64 {
	u1 := 1 - r.Float64() // (0, 1] keeps the log finite
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// canonical renders the distribution for the spec fingerprint: a fixed
// field order with %g floats, so equal distributions spell equally.
func (d Dist) canonical() string {
	s := fmt.Sprintf("%s(v=%g,shape=%g,scale=%g", d.Kind, d.Value, d.Shape, d.Scale)
	if d.MinSet {
		s += fmt.Sprintf(",min=%g", d.Min)
	}
	if d.MaxSet {
		s += fmt.Sprintf(",max=%g", d.Max)
	}
	return s + ")"
}

// decodeDist decodes the YAML forms of a Dist.
func decodeDist(v any, ctx string) (Dist, error) {
	switch val := v.(type) {
	case string:
		f, err := parseFloat(val)
		if err != nil {
			return Dist{}, fmt.Errorf("workload: %s: %v", ctx, err)
		}
		return constDist(f), nil
	case *yamlMap:
		if err := checkKeys(val, ctx, "dist", "value", "mean", "shape", "scale", "min", "max"); err != nil {
			return Dist{}, err
		}
		d := Dist{Kind: DistConst}
		if kind, ok := val.get("dist"); ok {
			s, err := scalarString(kind, ctx+".dist")
			if err != nil {
				return Dist{}, err
			}
			d.Kind = DistKind(s)
		}
		var err error
		if d.Value, _, err = optFloat(val, "value", ctx); err != nil {
			return Dist{}, err
		}
		if mean, ok, err2 := optFloat(val, "mean", ctx); err2 != nil {
			return Dist{}, err2
		} else if ok {
			d.Value = mean
		}
		if d.Shape, _, err = optFloat(val, "shape", ctx); err != nil {
			return Dist{}, err
		}
		if d.Scale, _, err = optFloat(val, "scale", ctx); err != nil {
			return Dist{}, err
		}
		if d.Min, d.MinSet, err = optFloat(val, "min", ctx); err != nil {
			return Dist{}, err
		}
		if d.Max, d.MaxSet, err = optFloat(val, "max", ctx); err != nil {
			return Dist{}, err
		}
		return d, d.validate(ctx)
	default:
		return Dist{}, fmt.Errorf("workload: %s: expected a number or a {dist: ...} mapping", ctx)
	}
}

// parseFloat parses a finite float.
func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("non-finite number %q", s)
	}
	return f, nil
}

// optFloat fetches an optional float field from a mapping.
func optFloat(m *yamlMap, key, ctx string) (float64, bool, error) {
	v, ok := m.get(key)
	if !ok {
		return 0, false, nil
	}
	s, err := scalarString(v, ctx+"."+key)
	if err != nil {
		return 0, false, err
	}
	f, err := parseFloat(s)
	if err != nil {
		return 0, false, fmt.Errorf("workload: %s.%s: %v", ctx, key, err)
	}
	return f, true, nil
}
