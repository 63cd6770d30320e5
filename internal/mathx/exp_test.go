package mathx

import (
	"math"
	"runtime"
	"testing"
)

// TestExpMatchesPortableMathExp compares Exp with math.Exp bit for bit
// where math.Exp is the portable Go routine Exp copies (386: run with
// GOARCH=386), over the special cases, both reduction signs, the
// near-zero cut-off, the overflow and underflow edges and a dense sweep
// of the FD-SOI leakage exponents' range. Elsewhere math.Exp may be
// assembly (amd64's is a different algorithm, a few ulps apart, with
// its own overflow edge), so there the comparison is to 1e-15 relative
// and skips |x| > 700.
func TestExpMatchesPortableMathExp(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, math.Ln2 / 2, -math.Ln2 / 2,
		1.0 / (1 << 28), -1.0 / (1 << 28), 1.0 / (1 << 29), 1e-300,
		709.782712893383973096, 709.79, -745.133219101941108420, -745.14, -708.4, -740,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
	}
	for i := -20000; i <= 20000; i++ {
		xs = append(xs, float64(i)*0.000731)
	}
	for i := -700; i <= 700; i++ {
		xs = append(xs, float64(i)+0.318)
	}
	exact := runtime.GOARCH == "386"
	for _, x := range xs {
		if !exact && math.Abs(x) > 700 {
			continue
		}
		got, want := Exp(x), math.Exp(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("Exp(%v) = %v, want NaN", x, got)
			}
			continue
		}
		gb, wb := math.Float64bits(got), math.Float64bits(want)
		if gb != wb && (exact || math.Abs(got-want) > 1e-15*want) {
			t.Fatalf("Exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, gb, want, wb)
		}
	}
}
