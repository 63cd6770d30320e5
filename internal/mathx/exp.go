package mathx

import "math"

// Exp returns e**x with the same bits on every architecture and CPU.
// The standard library's math.Exp is assembly on amd64, which takes a
// fused multiply-add path on CPUs that have FMA and so rounds some
// results differently from the same binary on a CPU without it, and
// differently from the portable Go routine that 386 runs. This is that
// portable routine — Go's math/exp.go, from FreeBSD's
// /usr/src/lib/msun/src/e_exp.c (Copyright (C) 2004 by Sun
// Microsystems, Inc.; permission to use, copy, modify, and distribute
// is freely granted, provided that this notice is preserved) — with
// every product that feeds an addition rounded by float64(x*y), so no
// compiler fuses it either. It returns math.Exp's bits wherever
// math.Exp runs the portable routine (386, for one).
func Exp(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		log2e = 1.44269504088896338700e+00

		overflow  = 7.09782712893383973096e+02
		underflow = -7.45133219101941108420e+02
		nearZero  = 1.0 / (1 << 28) // 2**-28

		p1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		p2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		p3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		p4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		p5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)

	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	case x < underflow:
		return 0
	case -nearZero < x && x < nearZero:
		return 1 + x
	}

	// Reduce x to r = hi - lo with x = k*ln2 + r and |r| <= ln2/2.
	var k int
	switch {
	case x < 0:
		k = int(float64(log2e*x) - 0.5)
	case x > 0:
		k = int(float64(log2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*ln2Hi)
	lo := float64(float64(k) * ln2Lo)

	// exp(r) = 1 + r + r*c/(2-c) with c = r - P(r*r), scaled by 2**k.
	r := hi - lo
	t := r * r
	c := r - float64(t*(p1+float64(t*(p2+float64(t*(p3+float64(t*(p4+float64(t*p5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return math.Ldexp(y, k)
}
