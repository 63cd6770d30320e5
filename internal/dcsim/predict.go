// Package dcsim is the data-center simulator of the paper's
// evaluation (Section VI-C): 600 NTC servers hosting the traced VMs,
// re-allocated every one-hour time slot from ARIMA predictions, with
// a shared online DVFS governor that sets each server's frequency per
// 5-minute sample from the real utilisation, SLA-violation accounting
// (overutilised servers), and energy integration over the server
// power model.
//
// The simulator is agnostic to where its trace came from: any
// trace.Trace on the 5-minute tick grid replays identically, whether
// synthesised or ingested from a file backend.
package dcsim

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/forecast"
	"repro/internal/trace"
)

// PredictionSet holds forecasted per-VM day-ahead utilisation covering
// the evaluation period, aligned so index 0 is the first evaluated
// sample. Computing it once and sharing it across policy runs mirrors
// the paper's methodology (all policies see the same predictions) and
// makes A/B energy comparisons free of prediction noise.
//
// Rows are read-only once published: oracle rows (Predict with a nil
// predictor) are views of the trace's own evaluation window, and the
// sets handed to per-DC steppers share rows with their parent.
type PredictionSet struct {
	// Predictor names the source of the forecasts.
	Predictor string

	// CPU[vm][i] and Mem[vm][i] are predicted core-points /
	// container-points for evaluated sample i.
	CPU, Mem [][]float64
}

// Predict builds the prediction set: for every evaluation day it feeds
// each VM's previous historyDays of samples to the predictor and
// forecasts the next day, exactly as the paper does with ARIMA on the
// Google traces ("ARIMA considers the CPU and memory utilization from
// the previous week and forecasts the next-day traces per VM").
//
// A nil predictor yields oracle predictions (the actual traces),
// isolating allocation quality from forecast quality in ablations.
// Oracle rows are three-index slices of the trace rows, so they copy
// nothing and an append to one can never write into the trace.
// Forecast rows are allocated once per VM and each day is forecast
// straight into them. VM fits run in parallel across the available
// CPUs.
func Predict(tr *trace.Trace, pred forecast.Predictor, historyDays, evalDays int) (*PredictionSet, error) {
	if historyDays <= 0 || evalDays <= 0 {
		return nil, fmt.Errorf("dcsim: historyDays (%d) and evalDays (%d) must be positive", historyDays, evalDays)
	}
	totalDays := tr.Samples() / trace.SamplesPerDay
	if historyDays+evalDays > totalDays {
		return nil, fmt.Errorf("dcsim: trace has %d days, need %d history + %d eval",
			totalDays, historyDays, evalDays)
	}

	nVMs := len(tr.VMs)
	evalSamples := evalDays * trace.SamplesPerDay
	ps := &PredictionSet{
		Predictor: "oracle",
		CPU:       make([][]float64, nVMs),
		Mem:       make([][]float64, nVMs),
	}
	evalStart := historyDays * trace.SamplesPerDay

	if pred == nil {
		lo, hi := evalStart, evalStart+evalSamples
		for v, vm := range tr.VMs {
			ps.CPU[v] = vm.CPU[lo:hi:hi]
			ps.Mem[v] = vm.Mem[lo:hi:hi]
		}
		return ps, nil
	}
	ps.Predictor = pred.Name()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for v := range tr.VMs {
		wg.Add(1)
		sem <- struct{}{}
		go func(v int) {
			defer wg.Done()
			defer func() { <-sem }()
			cpu := make([]float64, evalSamples)
			mem := make([]float64, evalSamples)
			if err := forecastDays(cpu, mem, tr.VMs[v], pred, historyDays, 0, evalDays); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("dcsim: VM %d: %w", v, err)
				}
				mu.Unlock()
				return
			}
			ps.CPU[v] = cpu
			ps.Mem[v] = mem
		}(v)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return ps, nil
}

// forecastDays forecasts evaluation days [d0, d1) of one VM into its
// prediction rows, each day from the historyDays before it: the
// rolling window batch Predict and LiveFeed share.
func forecastDays(cpu, mem []float64, vm *trace.VM, pred forecast.Predictor, historyDays, d0, d1 int) error {
	day := trace.SamplesPerDay
	for d := d0; d < d1; d++ {
		histEnd := (historyDays + d) * day
		histStart := histEnd - historyDays*day
		if err := pred.Forecast(cpu[d*day:(d+1)*day], vm.CPU[histStart:histEnd]); err != nil {
			return fmt.Errorf("cpu day %d: %w", d, err)
		}
		if err := pred.Forecast(mem[d*day:(d+1)*day], vm.Mem[histStart:histEnd]); err != nil {
			return fmt.Errorf("mem day %d: %w", d, err)
		}
	}
	return nil
}
