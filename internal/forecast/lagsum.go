package forecast

// The fit's two long-AR loops, the Yule–Walker lag sums and
// Hannan–Rissanen's stage-1 residuals, multiply one coefficient by a
// contiguous window of the series. lagSums16, lagSums4 and
// stage1Blocks run them with one accumulator per output. On amd64
// they are SSE2 assembly (lagsum_amd64.s) that keeps those
// accumulators in packed lanes; elsewhere they are the Go twins below,
// which keep four scalar accumulators at a time.
//
// The twins are the spec. Each output is one chain of products added
// in ascending i, starting from +0, every product and every sum
// rounded on its own, exactly as a scalar `s += float64(a*b)` loop:
// the assembly gives the same bits (lagsum_test.go checks it), and
// the explicit float64 conversions keep compilers that fuse `x*y + z`
// into one rounding (arm64, ppc64le, riscv64, s390x) from doing so.

// lagSums4Go sets out[j] = Σ a[i]·b[i+j] over i < len(a), for j < 4:
// the window of b slides forward with i. b must hold len(a)+3 values.
func lagSums4Go(out *[4]float64, a, b []float64) {
	n := len(a)
	b0, b1, b2, b3 := b[:n], b[1:n+1], b[2:n+2], b[3:n+3]
	var s0, s1, s2, s3 float64
	for i, c := range a {
		s0 += float64(c * b0[i])
		s1 += float64(c * b1[i])
		s2 += float64(c * b2[i])
		s3 += float64(c * b3[i])
	}
	*out = [4]float64{s0, s1, s2, s3}
}

// lagSums16Go is lagSums4Go for sixteen lags; b must hold len(a)+15
// values.
func lagSums16Go(out *[16]float64, a, b []float64) {
	b = b[:len(a)+15]
	for j := 0; j < 16; j += 4 {
		lagSums4Go((*[4]float64)(out[j:j+4]), a, b[j:])
	}
}

// stage1BlocksGo writes the long-AR residuals
// eps[t] = x[t] − Σ long[i]·x[t−1−i] (i < len(long)) for t from
// len(long), sixteen at a time, while a whole block of sixteen fits in
// x: the window of x slides backward with i. It returns the first t
// it did not write. eps must hold len(x) values.
func stage1BlocksGo(eps, x, long []float64) int {
	eps = eps[:len(x)]
	t := len(long)
	for ; t+16 <= len(x); t += 16 {
		for j := 0; j < 16; j += 4 {
			residuals4(eps, x, long, t+j)
		}
	}
	return t
}

// residuals4 writes the long-AR residuals eps[t..t+3] as
// stage1BlocksGo defines them; len(long) <= t and t+4 <= len(x).
func residuals4(eps, x, long []float64, t int) {
	var p0, p1, p2, p3 float64
	win := x[t-len(long) : t+3]
	for i, c := range long {
		w := win[len(long)-1-i : len(long)+3-i]
		p0 += float64(c * w[0])
		p1 += float64(c * w[1])
		p2 += float64(c * w[2])
		p3 += float64(c * w[3])
	}
	eps[t] = x[t] - p0
	eps[t+1] = x[t+1] - p1
	eps[t+2] = x[t+2] - p2
	eps[t+3] = x[t+3] - p3
}
