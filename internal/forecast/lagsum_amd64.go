package forecast

// The amd64 kernels are SSE2 only, which every amd64 CPU has (the
// GOAMD64=v1 baseline), so there is one path and no CPU detection.
// The wrappers check the slice bounds the assembly relies on.

func lagSums16(out *[16]float64, a, b []float64) {
	lagSums16SSE2(out, a, b[:len(a)+15])
}

func lagSums4(out *[4]float64, a, b []float64) {
	lagSums4SSE2(out, a, b[:len(a)+3])
}

func stage1Blocks(eps, x, long []float64) int {
	return stage1BlocksSSE2(eps[:len(x)], x, long)
}

//go:noescape
func lagSums16SSE2(out *[16]float64, a, b []float64)

//go:noescape
func lagSums4SSE2(out *[4]float64, a, b []float64)

//go:noescape
func stage1BlocksSSE2(eps, x, long []float64) int
