package main

import (
	"fmt"
	"runtime"
	"time"

	"clusterfds/internal/par"
	"clusterfds/internal/scenario"
	"clusterfds/internal/shard"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// fieldRun is one field simulated once, with the host-side measurements
// taken around it.
type fieldRun struct {
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers,omitempty"`
	// SimS and TxMsgs are the sim time and the transmissions the
	// measured window covers (see stormSliceTxPerHost).
	SimS     float64     `json:"sim_s"`
	TxMsgs   int64       `json:"tx_msgs"`
	SetupS   float64     `json:"setup_s"`
	WallS    float64     `json:"wall_s"`
	Allocs   uint64      `json:"allocs"`
	Bytes    uint64      `json:"alloc_bytes"`
	HeapLive uint64      `json:"heap_live_bytes"`
	GCCycles uint32      `json:"gc_cycles"`
	GCPause  uint64      `json:"gc_pause_ns"`
	EpochMs  []float64   `json:"epoch_wall_ms,omitempty"`
	FP       fingerprint `json:"fingerprint"`

	// Filled by traced runs only.
	tw        *tracedWorld
	windowsUs []float64
}

// runMode selects how a field is run: untraced, or traced at the engine's
// seams (serial: every layer; par: one span per RunEpochs(1); shard: the
// Progress barrier callback at every window).
type runMode struct {
	traced  bool
	workers int // 0 means the workload's own
}

// measured wraps a field run: set-up is timed from a collected heap, the
// run's allocations come from runtime.MemStats deltas, and live heap is
// read after a forced collection while the engine is still reachable.
func measured(build func(), run func() time.Duration, keep func() any) fieldRun {
	var r fieldRun
	runtime.GC()
	t0 := time.Now()
	build()
	r.SetupS = time.Since(t0).Seconds()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.WallS = run().Seconds()
	runtime.ReadMemStats(&m1)
	r.Allocs = m1.Mallocs - m0.Mallocs
	r.Bytes = m1.TotalAlloc - m0.TotalAlloc
	r.GCCycles = m1.NumGC - m0.NumGC
	r.GCPause = m1.PauseTotalNs - m0.PauseTotalNs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.HeapLive = m1.HeapAlloc
	runtime.KeepAlive(keep())
	return r
}

// setupOnly times one engine construction from a collected heap, as
// measured does, and discards the engine.
func setupOnly(wl workload, seed int64) float64 {
	runtime.GC()
	t0 := time.Now()
	var e any
	switch wl.Engine {
	case engineSerial:
		e = scenario.Build(serialConfig(wl, seed))
	case enginePar:
		e = par.Build(parConfig(wl, seed, wl.Workers))
	default:
		e = shard.Build(shardConfig(wl, seed, wl.Workers))
	}
	d := time.Since(t0).Seconds()
	runtime.KeepAlive(e)
	return d
}

func runField(wl workload, seed int64, mode runMode) fieldRun {
	workers := wl.Workers
	if mode.workers > 0 {
		workers = mode.workers
	}
	var r fieldRun
	switch wl.Engine {
	case engineSerial:
		r = runSerialField(wl, seed, mode.traced)
	case enginePar:
		r = runParField(wl, seed, workers, mode.traced)
	case engineShard:
		r = runShardField(wl, seed, workers, mode.traced)
	default:
		panic(fmt.Sprintf("unknown engine %q", wl.Engine))
	}
	r.Seed, r.Workers = seed, workers
	return r
}

// hostEpochs is the simulated work the run covered.
func (r fieldRun) hostEpochs(wl workload) float64 {
	return float64(wl.Nodes) * r.SimS / timing.Interval.Seconds()
}

func runSerialField(wl workload, seed int64, traced bool) fieldRun {
	cfg := serialConfig(wl, seed)
	var w serialWorld
	var tw *tracedWorld
	var fp fingerprint
	var epochMs []float64
	var reached sim.Time
	r := measured(
		func() {
			if traced {
				tw = buildTraced(cfg, wl.Epochs)
				w = tw
			} else {
				w = plainWorld{scenario.Build(cfg)}
			}
		},
		func() time.Duration {
			var wall time.Duration
			fp, wall, epochMs, reached = driveSerial(w, wl)
			return wall
		},
		func() any { return w },
	)
	r.FP, r.EpochMs, r.tw, r.SimS = fp, epochMs, tw, reached.Seconds()
	r.TxMsgs = txMsgs(fp)
	return r
}

func parConfig(wl workload, seed int64, workers int) par.Config {
	return par.Config{Seed: seed, Nodes: wl.Nodes, FieldSide: wl.Side, LossProb: wl.Loss, Workers: workers}
}

// runParField runs a par field. par advances only whole epochs, so a field
// that storms is stopped after its storm epoch; its SimS and TxMsgs end
// where that epoch began, because one storm epoch carries 10 to 30 times
// the transmissions of a steady one.
func runParField(wl workload, seed int64, workers int, traced bool) fieldRun {
	var e *par.Engine
	var victims []wire.NodeID
	var epochMs []float64
	var stormAt, windowEnd sim.Time
	var windowTx uint64
	r := measured(
		func() {
			e = par.Build(parConfig(wl, seed, workers))
			victims = e.CrashRandomAt(epochMid(wl.CrashEpoch), wl.Crashes)
		},
		func() time.Duration {
			t0 := time.Now()
			for range wl.Epochs {
				t, sent := time.Now(), e.Sends()
				e.RunEpochs(1)
				if traced {
					epochMs = append(epochMs, float64(time.Since(t))/1e6)
				}
				if stormed(wl, int64(e.Sends()-sent), stormEpochTxPerHost) {
					stormAt = e.Now()
					break
				}
				windowEnd, windowTx = e.Now(), e.Sends()
			}
			return time.Since(t0)
		},
		func() any { return e },
	)
	r.EpochMs, r.SimS, r.TxMsgs = epochMs, windowEnd.Seconds(), int64(windowTx)
	r.FP = fingerprint{
		Counters: map[string]int64{
			"sends": int64(e.Sends()), "deliveries": int64(e.Deliveries()), "strips": int64(e.Strips()),
		},
		Hashes:  map[string]string{"trace": e.TraceHash()},
		StormAt: int64(stormAt),
	}
	for _, v := range victims {
		aware, op := e.Completeness(v)
		r.FP.Aware = append(r.FP.Aware, aware)
		r.FP.Operational = op
	}
	r.FP.CrashEpoch = wl.CrashEpoch
	return r
}

func shardConfig(wl workload, seed int64, workers int) shard.Config {
	return scenario.ShardedCrashWave(
		scenario.Config{Seed: seed, Nodes: wl.Nodes, FieldSide: wl.Side, LossProb: wl.Loss},
		wl.Shards, workers, wl.Epochs, wl.Crashes, wl.CrashEpoch)
}

func runShardField(wl workload, seed int64, workers int, traced bool) fieldRun {
	cfg := shardConfig(wl, seed, workers)
	var windowsUs []float64
	var last time.Time
	if traced {
		cfg.ProgressEvery = 1
		cfg.Progress = func(sim.Time, uint64) {
			now := time.Now()
			windowsUs = append(windowsUs, float64(now.Sub(last))/1e3)
			last = now
		}
	}
	var e *shard.Engine
	var res shard.Result
	r := measured(
		func() { e = shard.Build(cfg) },
		func() time.Duration {
			t0 := time.Now()
			last = t0
			res = e.Run()
			return time.Since(t0)
		},
		func() any { return e },
	)
	r.windowsUs, r.SimS, r.TxMsgs = windowsUs, epochEnd(wl.Epochs-1).Seconds(), int64(res.Sends)
	r.FP = fingerprint{
		Counters: map[string]int64{
			"events": int64(res.Events), "sends": int64(res.Sends),
			"deliveries": int64(res.Deliveries), "drop_loss": int64(res.DropLoss),
			"drop_dead": int64(res.DropDead), "tx_bytes": int64(res.TxBytes),
			"rx_bytes": int64(res.RxBytes), "false_positives": int64(res.FalsePositives),
			"rescues": int64(res.Rescues), "detected": int64(res.Detected),
		},
		Hashes: map[string]string{
			"trace": fmt.Sprintf("%016x", res.TraceHash),
			"state": fmt.Sprintf("%016x", res.StateHash),
		},
		Operational: wl.Nodes,
		CrashEpoch:  wl.CrashEpoch,
	}
	// Operational hosts are taken from the engine's victim list: every
	// victim whose crash fell inside the horizon is down.
	horizon := epochEnd(wl.Epochs - 1)
	for _, v := range res.Victims {
		if v.CrashedAt <= horizon {
			r.FP.Operational--
		}
		r.FP.Aware = append(r.FP.Aware, v.Aware)
		if v.DetectedAt >= 0 {
			r.FP.Latencies = append(r.FP.Latencies, int64(v.DetectedAt-v.CrashedAt))
		}
	}
	return r
}
