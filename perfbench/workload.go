package main

import (
	"fmt"

	"clusterfds/internal/cluster"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Engines a workload can run on.
const (
	engineSerial = "serial" // scenario.Build: one sim.Kernel, per-host runtime
	enginePar    = "par"    // internal/par: strip-parallel full stack
	engineShard  = "shard"  // internal/shard: compact struct-of-arrays model
)

// workload is one named set of inputs. Every field except Fields and the
// seed handed to run is part of the simulated input; Fields only sets how
// many independent fields one pass covers.
type workload struct {
	Name   string  `json:"name"`
	Engine string  `json:"engine"`
	Nodes  int     `json:"nodes"`
	Side   float64 `json:"field_side_m"`
	Loss   float64 `json:"loss_prob"`
	// Fields is how many independent fields (seeds derived from the
	// workload seed) one pass runs. Host-time metrics are the median over
	// fields, so one field's outlying topology does not set the run's
	// figure.
	Fields int `json:"fields"`
	// Epochs is the simulated horizon in heartbeat intervals. On the serial
	// engine a crash workload ends After epochs after its crash epoch
	// instead, and Epochs is only the upper bound.
	Epochs  int `json:"epochs"`
	Crashes int `json:"crashes"`
	After   int `json:"epochs_after_crash,omitempty"`
	// CrashFrom and CrashLast bound the serial engine's crash epoch: the
	// wave starts at the midpoint of the first epoch in [CrashFrom,
	// CrashLast] whose census shows no unadmitted host, so the wave hits a
	// converged cluster structure. A field that has not converged by
	// CrashLast fails its check.
	CrashFrom int `json:"crash_from,omitempty"`
	CrashLast int `json:"crash_last,omitempty"`
	// CrashEpoch fixes the crash epoch on engines whose public surface has
	// no census (par, shard).
	CrashEpoch int `json:"crash_epoch,omitempty"`
	Workers    int `json:"workers,omitempty"`
	Shards     int `json:"shards,omitempty"`
}

// workloads is the benchmark's fixed set; plan.json records why each was
// chosen and which layers it exercises.
var workloads = []workload{
	{Name: "steady", Engine: engineSerial, Nodes: 1000, Side: 1000, Loss: 0.1,
		Fields: 20, Epochs: 10},
	{Name: "crashwave", Engine: engineSerial, Nodes: 1000, Side: 1000, Loss: 0.1,
		Fields: 14, Epochs: 10, Crashes: 10, CrashFrom: 6, CrashLast: 8, After: 1},
	{Name: "par-crashwave", Engine: enginePar, Nodes: 1000, Side: 1000, Loss: 0.1,
		Fields: 14, Epochs: 8, Crashes: 10, CrashEpoch: 6, Workers: 2},
	{Name: "shard-crashwave", Engine: engineShard, Nodes: 10000, Side: 2000, Loss: 0.1,
		Fields: 1, Epochs: 6, Crashes: 10, CrashEpoch: 3, Workers: 2, Shards: 4},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fieldSeeds derives the per-field simulation seeds from the workload seed:
// a pure function of (seed, index), so a seed always names the same fields
// and adjacent seeds share none.
func fieldSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(sim.SplitMix64(uint64(seed)*0x9E3779B97F4A7C15+uint64(i)) >> 1)
	}
	return out
}

var timing = cluster.DefaultTiming()

// epochEnd is the virtual instant at which epoch e ends.
func epochEnd(e int) sim.Time { return timing.EpochStart(wire.Epoch(e + 1)) }

// epochMid is the midpoint of epoch e, where crash waves start.
func epochMid(e int) sim.Time { return timing.EpochStart(wire.Epoch(e)) + timing.Interval/2 }
