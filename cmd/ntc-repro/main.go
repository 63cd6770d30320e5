// Command ntc-repro regenerates every table and figure of the paper's
// evaluation section and writes both human-readable output (stdout)
// and CSV files (under -out).
//
// Usage:
//
//	ntc-repro [-out results] [-vms 600] [-days 7] [-seed 2018]
//	          [-quick] [-skip-dc] [-arima=true]
//
// -quick shrinks the data-center runs (150 VMs, 2 days) for a fast
// end-to-end pass; the defaults reproduce the paper's scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dcsim"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	var (
		outDir = flag.String("out", "results", "directory for CSV output")
		vms    = flag.Int("vms", 600, "number of VMs in the data-center runs")
		days   = flag.Int("days", 7, "evaluated days (after 7 history days)")
		seed   = flag.Int64("seed", 2018, "trace generator seed")
		quick  = flag.Bool("quick", false, "reduced-scale data-center runs")
		skipDC = flag.Bool("skip-dc", false, "skip the data-center experiments (Figs 4-7)")
		arima  = flag.Bool("arima", true, "use ARIMA predictions (false = oracle)")
		ext    = flag.Bool("extensions", false, "also run the extension experiments (policy zoo, churn)")
	)
	flag.Parse()

	if err := run(*outDir, *vms, *days, *seed, *quick, *skipDC, *arima, *ext); err != nil {
		fmt.Fprintln(os.Stderr, "ntc-repro:", err)
		os.Exit(1)
	}
}

func run(outDir string, vms, days int, seed int64, quick, skipDC, arima, ext bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	writeCSV := func(name, data string) error {
		return os.WriteFile(filepath.Join(outDir, name), []byte(data), 0o644)
	}

	fmt.Println("== Table I ==")
	tbl := experiments.TableI()
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	if err := writeCSV("table1.csv", tbl.CSV()); err != nil {
		return err
	}

	fmt.Println("\n== Fig 1a (NTC DC) ==")
	f1a, err := experiments.Fig1a()
	if err != nil {
		return err
	}
	if err := f1a.Render(os.Stdout); err != nil {
		return err
	}
	if err := writeCSV("fig1a.csv", f1a.CSV()); err != nil {
		return err
	}

	fmt.Println("\n== Fig 1b (non-NTC DC) ==")
	f1b, err := experiments.Fig1b()
	if err != nil {
		return err
	}
	if err := f1b.Render(os.Stdout); err != nil {
		return err
	}
	if err := writeCSV("fig1b.csv", f1b.CSV()); err != nil {
		return err
	}

	fmt.Println("\n== Fig 2 ==")
	f2, err := experiments.Fig2()
	if err != nil {
		return err
	}
	if err := f2.Render(os.Stdout); err != nil {
		return err
	}
	if err := writeCSV("fig2.csv", f2.CSV()); err != nil {
		return err
	}

	fmt.Println("\n== Fig 3 ==")
	f3, err := experiments.Fig3()
	if err != nil {
		return err
	}
	if err := f3.Render(os.Stdout); err != nil {
		return err
	}
	if err := writeCSV("fig3.csv", f3.CSV()); err != nil {
		return err
	}

	if skipDC {
		fmt.Println("\n(data-center experiments skipped)")
		return nil
	}

	cfg := experiments.DefaultDCConfig()
	cfg.VMs = vms
	cfg.EvalDays = days
	cfg.Seed = seed
	cfg.UseARIMA = arima
	if quick {
		cfg.VMs = 150
		cfg.EvalDays = 2
	}

	fmt.Printf("\n== Figs 4-6 (%d VMs, %d days, predictor=%v) ==\n", cfg.VMs, cfg.EvalDays, arima)
	week, err := experiments.Fig4to6(cfg)
	if err != nil {
		return err
	}
	if err := week.Render(os.Stdout); err != nil {
		return err
	}
	if err := writeCSV("fig4to6.csv", week.CSV()); err != nil {
		return err
	}

	// Figure shapes at a glance.
	fmt.Println("\nper-slot energy (MJ):")
	for _, p := range week.Policies {
		if err := report.Series(os.Stdout, p, week.EnergyMJ[p], 60); err != nil {
			return err
		}
	}
	fmt.Println("per-slot violations:")
	for _, p := range week.Policies {
		viol := make([]float64, len(week.Violations[p]))
		for i, v := range week.Violations[p] {
			viol[i] = float64(v)
		}
		if err := report.Series(os.Stdout, p, viol, 60); err != nil {
			return err
		}
	}

	fmt.Println("\n== Fig 7 (static-power sweep) ==")
	f7, err := experiments.Fig7(cfg)
	if err != nil {
		return err
	}
	if err := f7.Render(os.Stdout); err != nil {
		return err
	}
	if err := writeCSV("fig7.csv", f7.CSV()); err != nil {
		return err
	}

	if ext {
		fmt.Println("\n== Extensions: policy zoo (with transition costs) ==")
		zoo, err := experiments.PolicyZoo(cfg, dcsim.DefaultTransitions())
		if err != nil {
			return err
		}
		var bars []report.Bar
		for _, r := range zoo {
			bars = append(bars, report.Bar{Label: r.Scenario.Policy, Value: r.TotalEnergyMJ})
			fmt.Printf("%-14s %8.1f MJ  %6d viol  %5.1f servers  %5d migrations (%.1f MJ)\n",
				r.Scenario.Policy, r.TotalEnergyMJ, r.Violations, r.MeanActive, r.Migrations, r.TransitionMJ)
		}
		fmt.Println()
		if err := report.BarChart(os.Stdout, bars, 40, " MJ"); err != nil {
			return err
		}

		fmt.Println("\n== Extensions: churn sensitivity ==")
		churn, err := experiments.ChurnSensitivity(cfg)
		if err != nil {
			return err
		}
		for _, r := range churn {
			fmt.Printf("churn %.0f%%: %d VMs affected, EPACT %.1f MJ vs COAT %.1f MJ (saving %.1f%%)\n",
				r.ChurnFraction*100, r.AffectedVMs, r.EPACTEnergyMJ, r.COATEnergyMJ, r.SavingPct)
		}
	}

	fmt.Printf("\nCSV written to %s/\n", outDir)
	return nil
}
