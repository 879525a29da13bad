package main

import (
	"time"
)

// layerReport is the traced run's per-layer detail beyond the last line:
// epoch wall times by index and each layer's share of traced self time in
// the epochs after the crash wave starts (all epochs without a wave).
type layerReport struct {
	EpochWallMs    []float64          `json:"epoch_wall_ms_median_by_index"`
	ShareFrom      int                `json:"share_from_epoch"`
	LayerShare     map[string]float64 `json:"layer_share"`
	LargestLayer   string             `json:"largest_layer"`
	StartS         map[string]float64 `json:"start_s,omitempty"`
	TracedWallS    float64            `json:"traced_wall_s"`
	UntracedWallS  float64            `json:"untraced_wall_s"`
	OverheadRatio  float64            `json:"overhead_ratio"`
	ParEpochSpans  []float64          `json:"par_epoch_s,omitempty"`
	ShardWindowsUs int                `json:"shard_window_samples,omitempty"`
}

func sumWall(runs []fieldRun) float64 {
	s := 0.0
	for _, r := range runs {
		s += r.WallS
	}
	return s
}

func gcMetrics(ms *metricSet, runs []fieldRun) {
	var cycles, pause float64
	for _, r := range runs {
		cycles += float64(r.GCCycles)
		pause += float64(r.GCPause) / 1e6
	}
	ms.set("gc.cycles", cycles)
	ms.set("gc.pause_ms", pause)
}

// epochWall fills epoch.wall_ms_* from per-epoch wall times and returns the
// median by epoch index over fields.
func epochWall(ms *metricSet, runs []fieldRun) []float64 {
	var all []float64
	var byIndex [][]float64
	for _, r := range runs {
		for i, v := range r.EpochMs {
			all = append(all, v)
			if i >= len(byIndex) {
				byIndex = append(byIndex, nil)
			}
			byIndex[i] = append(byIndex[i], v)
		}
	}
	if len(all) == 0 {
		return nil
	}
	ms.set("epoch.wall_ms_p50", median(all))
	ms.set("epoch.wall_ms_max", quantile(all, 1))
	out := make([]float64, len(byIndex))
	for i, xs := range byIndex {
		out[i] = median(xs)
	}
	return out
}

// serialLayers reduces the traced and untraced runs of every field (same
// order) to the per-layer metrics.
func serialLayers(wl workload, plain, traced []fieldRun) (*metricSet, layerReport) {
	ms := newMetricSet(perLayer)
	var rep layerReport
	var stats [numLayers][numSpanKinds]spanStat
	var events, sends, deliv, dropLoss, dropDown, txBytes, repTx, repRx, aware float64
	var heads, held float64
	pendingPeak, unadmitted := 0, 0
	hostEpochs := 0.0
	share := make([]time.Duration, numLayers)
	rep.ShareFrom = -1
	for i, r := range traced {
		tw := r.tw
		for l := range stats {
			for k := range stats[l] {
				stats[l][k].calls += tw.t.stats[l][k].calls
				stats[l][k].self += tw.t.stats[l][k].self
			}
		}
		from := 0
		if r.FP.CrashEpoch >= 0 {
			from = r.FP.CrashEpoch
			if rep.ShareFrom < 0 || from < rep.ShareFrom {
				rep.ShareFrom = from
			}
		}
		for e := from; e < len(tw.t.perEpoch); e++ {
			for l := range share {
				share[l] += tw.t.perEpoch[e][l]
			}
		}
		fp := plain[i].FP
		hostEpochs += plain[i].hostEpochs(wl)
		c := fp.Counters
		events += float64(fp.Steps)
		sends += float64(txMsgs(fp))
		deliv += float64(rxMsgs(fp))
		dropLoss += float64(c["drop:loss"])
		dropDown += float64(c["drop:receiver-down"])
		txBytes += float64(c["tx-bytes"])
		repTx += float64(c["tx:failure-report"])
		repRx += float64(c["rx:failure-report"])
		for _, a := range fp.Aware {
			aware += float64(a)
		}
		heads += float64(fp.Heads)
		held += float64(tw.reportsHeld())
		pendingPeak = max(pendingPeak, tw.pendingPeak)
		unadmitted = max(unadmitted, fp.Unadmitted)
	}
	n := float64(len(traced))
	untracedWall := sumWall(plain)
	ms.set("sim.events", events)
	ms.set("sim.events_per_host_epoch", events/hostEpochs)
	ms.set("sim.events_per_s", events/untracedWall)
	ms.set("sim.pending_peak", float64(pendingPeak))
	ms.set("sim.self_s", stats[layerSim][spanRun].self.Seconds())
	offered := deliv + dropLoss + dropDown
	ms.set("radio.sends", sends)
	ms.set("radio.deliveries", deliv)
	ms.set("radio.drop_loss", dropLoss)
	ms.set("radio.delivery_ratio", deliv/offered)
	ms.set("radio.fanout", offered/sends)
	ms.set("radio.send_s", stats[layerRadio][spanSend].self.Seconds())
	ms.set("wire.tx_bytes", txBytes)
	ms.set("wire.bytes_per_send", txBytes/sends)
	ms.set("node.deliver_s", stats[layerNode][spanDeliver].self.Seconds())
	rep.StartS = make(map[string]float64)
	for _, l := range []layer{layerCluster, layerFDS, layerIntercluster} {
		name := layerNames[l]
		ms.set(name+".handle_calls", float64(stats[l][spanHandle].calls))
		ms.set(name+".handle_s", stats[l][spanHandle].self.Seconds())
		ms.set(name+".timer_calls", float64(stats[l][spanTimer].calls))
		ms.set(name+".timer_s", stats[l][spanTimer].self.Seconds())
		rep.StartS[name] = stats[l][spanStart].self.Seconds()
	}
	ms.set("cluster.heads", heads/n)
	ms.set("cluster.unadmitted_at_crash", float64(unadmitted))
	ms.set("intercluster.report_tx", repTx)
	ms.set("intercluster.report_rx", repRx)
	ms.set("intercluster.reports_held", held/n)
	if aware > 0 {
		ms.set("intercluster.rx_per_aware", repRx/aware)
	}
	var total time.Duration
	for _, d := range share {
		total += d
	}
	rep.LayerShare = make(map[string]float64)
	for l, d := range share {
		rep.LayerShare[layerNames[l]] = d.Seconds() / total.Seconds()
		if rep.LargestLayer == "" || rep.LayerShare[layerNames[l]] > rep.LayerShare[rep.LargestLayer] {
			rep.LargestLayer = layerNames[l]
		}
	}
	if rep.ShareFrom < 0 {
		rep.ShareFrom = 0
	}
	ms.set("intercluster.self_share", rep.LayerShare["intercluster"])
	rep.EpochWallMs = epochWall(ms, plain)
	gcMetrics(ms, plain)
	overhead(ms, &rep, plain, traced)
	return ms, rep
}

func overhead(ms *metricSet, rep *layerReport, plain, traced []fieldRun) {
	rep.TracedWallS, rep.UntracedWallS = sumWall(traced), sumWall(plain)
	rep.OverheadRatio = rep.TracedWallS / rep.UntracedWallS
	ms.set("trace.overhead_s", rep.TracedWallS-rep.UntracedWallS)
}

// parLayers reduces par runs: plain and traced at the workload's worker
// count, and traced at one worker, field by field.
func parLayers(plain, traced, one []fieldRun) (*metricSet, layerReport) {
	ms := newMetricSet(perLayer)
	var rep layerReport
	var sends, deliv float64
	for _, r := range traced {
		sends += float64(r.FP.Counters["sends"])
		deliv += float64(r.FP.Counters["deliveries"])
		for _, v := range r.EpochMs {
			rep.ParEpochSpans = append(rep.ParEpochSpans, v/1e3)
		}
	}
	ms.set("par.epoch_s", median(rep.ParEpochSpans))
	ms.set("par.sends", sends)
	ms.set("par.deliveries", deliv)
	ms.set("par.strips", float64(traced[0].FP.Counters["strips"]))
	speedup := sumWall(one) / sumWall(traced)
	ms.set("par.speedup", speedup)
	ms.set("par.efficiency", speedup/float64(traced[0].Workers))
	rep.EpochWallMs = epochWall(ms, traced)
	gcMetrics(ms, plain)
	overhead(ms, &rep, plain, traced)
	return ms, rep
}

// shardLayers reduces shard runs the same way; window times come from the
// Progress callback, called at every barrier.
func shardLayers(plain, traced, one []fieldRun) (*metricSet, layerReport) {
	ms := newMetricSet(perLayer)
	var rep layerReport
	var events, dropLoss, dropDead, deliv float64
	var windows []float64
	for _, r := range traced {
		c := r.FP.Counters
		events += float64(c["events"])
		deliv += float64(c["deliveries"])
		dropLoss += float64(c["drop_loss"])
		dropDead += float64(c["drop_dead"])
		windows = append(windows, r.windowsUs...)
	}
	rep.ShardWindowsUs = len(windows)
	ms.set("shard.events", events)
	ms.set("shard.windows", float64(len(windows)))
	ms.set("shard.events_per_window", events/float64(len(windows)))
	ms.set("shard.window_us_p50", median(windows))
	ms.set("shard.window_us_p99", quantile(windows, 0.99))
	ms.set("shard.drop_dead", dropDead)
	ms.set("shard.delivery_ratio", deliv/(deliv+dropLoss+dropDead))
	ms.set("shard.speedup", sumWall(one)/sumWall(traced))
	gcMetrics(ms, plain)
	overhead(ms, &rep, plain, traced)
	return ms, rep
}
