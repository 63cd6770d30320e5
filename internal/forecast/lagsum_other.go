//go:build !amd64

package forecast

func lagSums16(out *[16]float64, a, b []float64) { lagSums16Go(out, a, b) }

func lagSums4(out *[4]float64, a, b []float64) { lagSums4Go(out, a, b) }

func stage1Blocks(eps, x, long []float64) int { return stage1BlocksGo(eps, x, long) }
