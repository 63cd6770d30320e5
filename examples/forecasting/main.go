// Forecasting demonstrates the prediction layer EPACT depends on: fit
// ARIMA on six days of one VM's CPU trace, forecast day seven, and
// compare the error against the naive baselines. Every predictor
// writes its forecast into one caller-owned day buffer, as
// dcsim.Predict forecasts each day straight into its prediction rows.
package main

import (
	"fmt"
	"log"

	ntcdc "repro"
	"repro/internal/forecast"
	"repro/internal/mathx"
	"repro/internal/trace"
)

func main() {
	tr, err := ntcdc.GenerateTrace(ntcdc.DefaultTraceConfig(42))
	if err != nil {
		log.Fatal(err)
	}
	vm := tr.VMs[7]
	day := trace.SamplesPerDay
	history, actual := vm.CPU[:6*day], vm.CPU[6*day:7*day]

	predictors := []ntcdc.Predictor{
		ntcdc.NewARIMA(),
		&forecast.SeasonalNaive{Period: day},
		forecast.LastValue{},
	}

	fmt.Printf("VM %d (%v): forecasting day 7 from days 1-6\n\n", vm.ID, vm.Class)
	fmt.Println("predictor            RMSE    MAPE(%)")
	pred := make([]float64, day)
	for _, p := range predictors {
		if err := p.Forecast(pred, history); err != nil {
			log.Fatal(err)
		}
		rmse, err := mathx.RMSE(actual, pred)
		if err != nil {
			log.Fatal(err)
		}
		mape, err := mathx.MAPE(actual, pred, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %5.2f   %6.2f\n", p.Name(), rmse, mape)
	}

	fmt.Printf("\nactual day-7 mean: %.1f%%, std: %.1f%%\n",
		mathx.Mean(actual), mathx.Std(actual))
	fmt.Println("\nARIMA's edge over last-value on diurnal traces is what lets")
	fmt.Println("EPACT size the server pool a slot ahead without violations.")
}
