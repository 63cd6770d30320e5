package ntcdc

import (
	"math"
	"testing"
)

func TestFacadeServerModels(t *testing.T) {
	ntc := NTCServerPower()
	if got := ntc.OptimalFrequency().GHz(); got < 1.8 || got > 2.0 {
		t.Errorf("NTC optimum = %.1f GHz, want ≈1.9", got)
	}
	e5 := ConventionalServerPower()
	if e5.OptimalFrequency() != e5.FMax {
		t.Errorf("conventional optimum = %v, want FMax", e5.OptimalFrequency())
	}
}

func TestFacadeFrequencyHelpers(t *testing.T) {
	if GHz(1.9).MHz() != 1900 {
		t.Error("GHz helper broken")
	}
	if MHz(2400).GHz() != 2.4 {
		t.Error("MHz helper broken")
	}
}

func TestFacadeQoS(t *testing.T) {
	ntc := NTCPlatform()
	f, err := MinQoSFrequency(ntc, LowMem)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.GHz()-1.2) > 0.05 {
		t.Errorf("low-mem QoS floor = %v, want 1.2 GHz", f)
	}
	if lim := QoSLimit(HighMem); math.Abs(lim-6.909) > 0.07 {
		t.Errorf("high-mem QoS limit = %.3f, want 6.909", lim)
	}
}

func TestFacadePlatforms(t *testing.T) {
	if NTCPlatform().Cores != 16 {
		t.Error("the NTC server should have 16 cores")
	}
	if !FDSOI28().InNearThresholdRegion(GHz(0.3)) {
		t.Error("FD-SOI at 0.3 GHz should be near threshold")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	// A miniature end-to-end run through the public API only.
	cfg := DefaultTraceConfig(5)
	cfg.VMs = 40
	cfg.Days = 8
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.VMs) != 40 {
		t.Fatalf("trace has %d VMs, want 40", len(tr.VMs))
	}

	wc := DefaultWeekConfig()
	wc.VMs = 40
	wc.EvalDays = 1
	wc.UseARIMA = false
	week, err := RunWeek(wc)
	if err != nil {
		t.Fatal(err)
	}
	if week.TotalEnergyMJ["EPACT"] <= 0 {
		t.Error("EPACT consumed no energy")
	}
	if week.TotalEnergyMJ["COAT"] <= week.TotalEnergyMJ["EPACT"] {
		t.Error("COAT should consume more than EPACT on NTC servers")
	}
}

func TestFacadePolicies(t *testing.T) {
	// Every allocation policy is reachable through the facade's sweep.
	policies := []string{"EPACT", "COAT", "COAT-OPT", "FFD", "Verma-binary", "load-balance"}
	res, err := RunSweep(SweepGrid{
		Policies:   policies,
		VMs:        []int{16},
		MaxServers: []int{16},
		EvalDays:   1,
		Predictors: []string{"oracle"},
	}, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Runs {
		if r.Scenario.Policy != policies[i] || r.TotalEnergyMJ <= 0 {
			t.Errorf("run %d: policy %s, energy %v MJ; want %s with energy", i, r.Scenario.Policy, r.TotalEnergyMJ, policies[i])
		}
	}
	if NewARIMA().Name() == "" {
		t.Error("predictor with empty name")
	}
}

func TestFacadeBodyBias(t *testing.T) {
	bt, err := WithBodyBias(FDSOI28(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if bt.VthShift() >= 0 {
		t.Error("FBB should lower the threshold")
	}
	if _, err := WithBodyBias(FDSOI28(), 3.0); err == nil {
		t.Error("out-of-range bias accepted")
	}
}

func TestFacadePowerBreakdown(t *testing.T) {
	// The facade's Power and the level evaluator it is built on are one
	// formula, so they agree bit for bit.
	m := NTCServerPower()
	op := OperatingPoint{Freq: GHz(1.9), BusyCores: 8}
	lv := m.LevelAt(op.Freq).Evaluate(op.BusyCores, op.WFMFraction, op.LLCReadsPerSec,
		op.LLCWritesPerSec, op.MemReadBytesPerSec, op.MemWriteBytesPerSec)
	if got := m.Power(op); got != lv {
		t.Errorf("power %.6f != level evaluator %.6f", got.W(), lv.W())
	}
	if m.IdlePeakScore() <= ConventionalServerPower().IdlePeakScore() {
		t.Error("NTC proportionality should beat conventional")
	}
}

func TestFacadeRunSweep(t *testing.T) {
	res, err := RunSweep(SweepGrid{
		Policies:   []string{"EPACT", "COAT"},
		VMs:        []int{40},
		MaxServers: []int{40},
		EvalDays:   1,
		Predictors: []string{"oracle"},
	}, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(res.Runs))
	}
	if res.Runs[0].Scenario.Policy != "EPACT" || res.Runs[0].TotalEnergyMJ <= 0 {
		t.Errorf("unexpected first run: %+v", res.Runs[0])
	}
}
