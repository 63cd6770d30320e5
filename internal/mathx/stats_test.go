package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almost(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := Std(xs); !almost(s, 2, 1e-12) {
		t.Errorf("Std = %v, want 2", s)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v, want 0", m)
	}
	if v := Variance(nil); v != 0 {
		t.Errorf("Variance(nil) = %v, want 0", v)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if m := Max(xs); m != 7 {
		t.Errorf("Max = %v, want 7", m)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	// Perfect anti-correlation.
	z := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(x, z)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonConstantSeriesIsZero(t *testing.T) {
	x := []float64{5, 5, 5, 5}
	y := []float64{1, 2, 3, 4}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("Pearson(const, y) = %v, want 0", r)
	}
}

func TestPearsonLengthMismatch(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := newTestRNG(seed)
		n := 8 + int(math.Abs(float64(seed%32)))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.next()
			y[i] = rng.next()
		}
		r, err := Pearson(x, y)
		return err == nil && r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// newTestRNG is a tiny deterministic generator for property tests so we
// control the distribution (math/rand would also do; this keeps seeds
// explicit and reproducible across Go versions).
type testRNG struct{ state uint64 }

func newTestRNG(seed int64) *testRNG {
	s := uint64(seed)*2862933555777941757 + 3037000493
	return &testRNG{state: s | 1}
}

func (r *testRNG) next() float64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return float64(r.state%1_000_000) / 10_000 // [0, 100)
}

func TestClamp(t *testing.T) {
	if v := Clamp(5, 0, 3); v != 3 {
		t.Errorf("Clamp(5,0,3) = %v, want 3", v)
	}
	if v := Clamp(-1, 0, 3); v != 0 {
		t.Errorf("Clamp(-1,0,3) = %v, want 0", v)
	}
	if v := Clamp(2, 0, 3); v != 2 {
		t.Errorf("Clamp(2,0,3) = %v, want 2", v)
	}
}

func TestMAPE(t *testing.T) {
	actual := []float64{10, 20, 0, 40}
	forecast := []float64{11, 18, 5, 44}
	// Errors: 10%, 10%, (skipped), 10% -> 10%.
	got, err := MAPE(actual, forecast, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 10, 1e-9) {
		t.Errorf("MAPE = %v, want 10", got)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}, 0); err != ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestRMSE(t *testing.T) {
	got, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || got != 0 {
		t.Errorf("RMSE identical = (%v, %v), want (0, nil)", got, err)
	}
	got, err = RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMSE = %v, want sqrt(12.5)", got)
	}
}
