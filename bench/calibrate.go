package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// A shared host grants the benchmark a speed that moves in episodes of
// seconds to minutes, and a median over one run cannot average out an
// episode that lasts the whole run. So every timed unit — a grid run, a
// daemon set-up, serve-mix's lanes — is paired with a reference load
// timed beside it, and its time is reported scaled to reference speed:
// wall time × refNominal ÷ the reference load's time. The reference
// load uses only the standard library, so a change to the program moves
// the timed unit and not the reference.

// refNominal is the reference load's usual time on the reference
// machine (a 2-core Xeon); scaled times read as wall times there.
const refNominal = 80 * time.Millisecond

// Reference load size: refChunks chunks, each refRounds rounds over a
// slice of refLen floats per goroutine.
const (
	refChunks = 5
	refRounds = 40
	refLen    = 4096
)

// refLoad times the reference load and returns refChunks times its
// median chunk's wall time. The load is cut into chunks because the
// host now and then takes a core away for tens of milliseconds, which
// stretches an 80-ms load to two or three times its length but a grid
// run of seconds by a few percent; such a moment lands in one or two
// chunks and not in the median.
func refLoad() time.Duration {
	bufs := make([][]float64, workers)
	for w := range bufs {
		bufs[w] = make([]float64, refLen)
	}
	chunks := make([]float64, refChunks)
	for c := range chunks {
		chunks[c] = float64(refChunk(bufs, uint64(c)))
	}
	return time.Duration(refChunks * median(chunks))
}

// refChunk times one chunk: on as many goroutines as a workload's
// workers, rounds of filling a slice with pseudo-random floats, sorting
// it and folding it through a dependent chain of square roots. The
// slices are allocated before the clock starts, so the load neither
// allocates nor wakes the collector.
func refChunk(bufs [][]float64, chunk uint64) time.Duration {
	sink := make([]float64, len(bufs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := range bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), chunk))
			xs, acc := bufs[w], 0.0
			for range refRounds {
				for i := range xs {
					xs[i] = r.Float64()
				}
				slices.Sort(xs)
				for _, x := range xs {
					acc = math.Sqrt(acc*0.999 + x)
				}
			}
			sink[w] = acc
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// warmUpFor is how long warmUp keeps the machine busy.
const warmUpFor = time.Second

// warmUp runs the reference load untimed for warmUpFor. After the
// machine idled, as it does while run.sh checks the build, the first
// loads read up to twice their usual time for up to a second (half a
// second of warm-up was not always enough), and a reference load that
// read slow would scale the run timed after it down by as much.
func warmUp() {
	for start := time.Now(); time.Since(start) < warmUpFor; {
		refLoad()
	}
}

// scaledMs returns d in ms at reference speed, where ref is the
// reference load's time measured beside d.
func scaledMs(d, ref time.Duration) float64 {
	return ms(d) * float64(refNominal) / float64(ref)
}
