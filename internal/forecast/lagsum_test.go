package forecast

import (
	"math"
	"math/rand/v2"
	"testing"
)

// lagSumValue draws a kernel input: ±0, a subnormal, or a normal value
// of either sign with magnitude between 1e-5 and 1e5, so sums mix
// scales, cancel and round.
func lagSumValue(r *rand.Rand) float64 {
	sign := 1.0
	if r.IntN(2) == 0 {
		sign = -1
	}
	switch r.IntN(16) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.Float64frombits(1+r.Uint64N(1<<52-1)) // subnormal
	}
	return sign * math.Pow(10, -5+10*r.Float64()) * (1 + r.Float64())
}

// lagSumSlice returns n kernel inputs starting at an offset of 0 to 3
// values into a fresh buffer, so the kernels see unaligned windows.
func lagSumSlice(r *rand.Rand, n int) []float64 {
	off := r.IntN(4)
	buf := make([]float64, off+n)
	for i := range buf {
		buf[i] = lagSumValue(r)
	}
	return buf[off:]
}

// sameBits reports the first index where got and want differ in their
// bits, or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestLagSumKernelsMatchGoTwins feeds the kernels (SSE2 on amd64) and
// their Go twins the same inputs and requires the same bits: windows
// sliding forward (lag sums) and backward (stage-1 residuals), no
// terms at all (m = 0), ±0, subnormals, magnitudes from 1e-5 to 1e5
// and unaligned offsets.
func TestLagSumKernelsMatchGoTwins(t *testing.T) {
	r := rand.New(rand.NewPCG(30, 2018))
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	fill := func(s []float64) {
		for i := range s {
			s[i] = sentinel
		}
	}
	for trial := range 20000 {
		m := r.IntN(48)
		if trial%8 == 0 {
			m = 0
		}
		switch trial % 3 {
		case 0:
			a, b := lagSumSlice(r, m), lagSumSlice(r, m+15)
			var got, want [16]float64
			fill(got[:])
			fill(want[:])
			lagSums16(&got, a, b)
			lagSums16Go(&want, a, b)
			if j := sameBits(got[:], want[:]); j >= 0 {
				t.Fatalf("trial %d: lagSums16 m=%d lag %d = %v (%#x), twin %v (%#x)",
					trial, m, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		case 1:
			a, b := lagSumSlice(r, m), lagSumSlice(r, m+3)
			var got, want [4]float64
			fill(got[:])
			fill(want[:])
			lagSums4(&got, a, b)
			lagSums4Go(&want, a, b)
			if j := sameBits(got[:], want[:]); j >= 0 {
				t.Fatalf("trial %d: lagSums4 m=%d lag %d = %v (%#x), twin %v (%#x)",
					trial, m, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		default:
			// From no block to a few blocks and a partial one.
			n := m + r.IntN(72)
			x, long := lagSumSlice(r, n), lagSumSlice(r, m)
			got, want := make([]float64, n), make([]float64, n)
			fill(got)
			fill(want)
			gt, wt := stage1Blocks(got, x, long), stage1BlocksGo(want, x, long)
			if gt != wt {
				t.Fatalf("trial %d: stage1Blocks n=%d m=%d stopped at %d, twin at %d", trial, n, m, gt, wt)
			}
			if j := sameBits(got, want); j >= 0 {
				t.Fatalf("trial %d: stage1Blocks n=%d m=%d eps[%d] = %v (%#x), twin %v (%#x)",
					trial, n, m, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
}

// TestLagSumKernelsCheckBounds requires the kernels to panic, as their
// twins do, rather than read or write past a slice that is too short.
func TestLagSumKernelsCheckBounds(t *testing.T) {
	a := make([]float64, 8)
	var out16 [16]float64
	var out4 [4]float64
	for name, call := range map[string]func(){
		"lagSums16 short b":    func() { lagSums16(&out16, a, make([]float64, len(a)+14)) },
		"lagSums4 short b":     func() { lagSums4(&out4, a, make([]float64, len(a)+2)) },
		"stage1Blocks short e": func() { stage1Blocks(make([]float64, 31), make([]float64, 32), a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
