package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload so every engine runs in well under a second while
// keeping its shape: crash workloads still crash after a converged census.
func tiny(wl workload) workload {
	wl.Fields = 2
	switch wl.Engine {
	case engineShard:
		wl.Nodes, wl.Side, wl.Epochs, wl.CrashEpoch = 400, 400, 4, 2
	default:
		wl.Nodes, wl.Side = 60, 250
		if wl.Engine == enginePar {
			wl.Epochs, wl.CrashEpoch = 6, 4
		} else if wl.Crashes > 0 {
			wl.CrashFrom, wl.CrashLast = 3, wl.Epochs-2
		} else {
			wl.Epochs = 4
		}
	}
	wl.Crashes = min(wl.Crashes, 3)
	return wl
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTinyWorkloadsEmitEveryMetric runs every workload at a tiny size,
// untraced and traced, and checks that every metric BENCHMARK.json names is
// emitted with its unit and that every check passed.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, bw := range b.Workloads {
		if bw.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, bw.Name, workloads[i].Name)
		}
	}
	for _, wl := range workloads {
		wl := tiny(wl)
		t.Run(wl.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				out := run(wl, 3, time.Millisecond, traced)
				if !out.res.Correct || out.res.Attempted < 2 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failures=%v",
						traced, out.res.Correct, out.res.Attempted, out.rep.Failures)
				}
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(out.res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json lists %d", traced, len(out.res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := out.res.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, name, got, unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
			}
		})
	}
}

// TestCatalogsMatchBenchmarkJSON holds the Go metric catalogs and
// BENCHMARK.json in step: same names, units and directions, same order.
func TestCatalogsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json: %d end-to-end and %d per-layer metrics, catalogs: %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, d)
		}
	}
}

// TestPlanCoversEveryLayerMetric checks that plan.json's layer map names
// every per-layer metric exactly once.
func TestPlanCoversEveryLayerMetric(t *testing.T) {
	raw, err := os.ReadFile("plan.json")
	if err != nil {
		t.Fatal(err)
	}
	var plan struct {
		Map []struct {
			Metrics []string `json:"metrics"`
		} `json:"layer_to_end_to_end"`
	}
	if err := json.Unmarshal(raw, &plan); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, l := range plan.Map {
		for _, m := range l.Metrics {
			seen[m]++
		}
	}
	for _, d := range perLayer {
		if seen[d.Name] != 1 {
			t.Errorf("plan.json maps %s %d times, want once", d.Name, seen[d.Name])
		}
		delete(seen, d.Name)
	}
	for m := range seen {
		t.Errorf("plan.json maps unknown metric %s", m)
	}
}

// TestTracedCheckTripsOnMismatch proves the traced-vs-untraced equality
// check fires: a traced world's fingerprint equals the untraced one, and a
// deliberately mismatched counter set does not.
func TestTracedCheckTripsOnMismatch(t *testing.T) {
	wl := tiny(workloads[1])
	plain := runField(wl, 5, runMode{})
	traced := runField(wl, 5, runMode{traced: true})
	if err := plain.FP.diff(traced.FP); err != nil {
		t.Fatalf("traced world differs from scenario.Build's: %v", err)
	}
	bad := traced.FP
	bad.Counters = make(map[string]int64, len(traced.FP.Counters))
	for k, v := range traced.FP.Counters {
		bad.Counters[k] = v
	}
	bad.Counters["tx:heartbeat"]++
	err := plain.FP.diff(bad)
	if err == nil || !strings.Contains(err.Error(), "tx:heartbeat") {
		t.Fatalf("mismatched counters not caught: %v", err)
	}
	delete(bad.Counters, "tx:heartbeat")
	if plain.FP.diff(bad) == nil {
		t.Fatal("a missing counter was not caught")
	}
}

// TestStormFieldsCountInTx checks the storm rule of e2eMetrics: a field
// stopped by a storm adds its transmissions and host-epochs to
// tx_msgs_per_host_epoch, and stays out of the host-side medians.
func TestStormFieldsCountInTx(t *testing.T) {
	wl := workloads[0]
	epoch := timing.Interval.Seconds()
	calm := fieldRun{SimS: 10 * epoch, TxMsgs: 30_000, WallS: 1, Allocs: 100_000}
	storm := fieldRun{SimS: 5 * epoch, TxMsgs: 40_000, WallS: 4, Allocs: 900_000}
	storm.FP.StormAt = 1
	byField := [][]fieldRun{{calm}, {calm}, {storm}}
	ms := e2eMetrics(wl, byField, stormFields(byField), []float64{0.01})
	if got, want := ms.m["tx_msgs_per_host_epoch"].Value, 100_000.0/25_000; got != want {
		t.Errorf("tx_msgs_per_host_epoch = %v, want %v", got, want)
	}
	if got := ms.m["host_epochs_per_s"].Value; got != 10_000 {
		t.Errorf("host_epochs_per_s = %v, want 10000 (the stormed field left out)", got)
	}
	if got := ms.m["allocs_per_host_epoch"].Value; got != 10 {
		t.Errorf("allocs_per_host_epoch = %v, want 10 (the stormed field left out)", got)
	}
}
