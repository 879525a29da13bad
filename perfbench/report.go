package main

import (
	"math"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; the package test holds the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a run without tracing reports on its last line:
// the host-side cost of simulating the workload and its transmissions, each
// taken over several fields (see e2eMetrics), so none is ever zero.
var endToEnd = []metricDef{
	{"host_epochs_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"allocs_per_host_epoch", "count", "lower"},
	{"alloc_bytes_per_host_epoch", "B", "lower"},
	{"tx_msgs_per_host_epoch", "count", "lower"},
}

// quality are the detection-quality metrics of the crash workloads. They are
// simulated, repeat exactly at a fixed seed, and are printed in the report
// line; they are zero on a workload without crashes, so they are not gated.
var quality = []metricDef{
	{"unaware_share", "ratio", "lower"},
	{"false_suspect_share", "ratio", "lower"},
	{"detect_latency_s_p50", "s", "lower"},
	{"detect_latency_s_p99", "s", "lower"},
	{"detect_latency_samples", "count", "higher"},
}

// perLayer are the metrics a traced run reports on its last line. Counts
// and times are summed over the run's fields. A workload that bypasses a
// layer reports 0 for it and names it under not_measured in the report.
var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.events_per_host_epoch", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.pending_peak", "count", "lower"},
	{"sim.self_s", "s", "lower"},
	{"radio.sends", "count", "lower"},
	{"radio.deliveries", "count", "lower"},
	{"radio.drop_loss", "count", "lower"},
	{"radio.delivery_ratio", "ratio", "higher"},
	{"radio.fanout", "count", "lower"},
	{"radio.send_s", "s", "lower"},
	{"wire.tx_bytes", "B", "lower"},
	{"wire.bytes_per_send", "B", "lower"},
	{"node.deliver_s", "s", "lower"},
	{"cluster.handle_calls", "count", "lower"},
	{"cluster.handle_s", "s", "lower"},
	{"cluster.timer_calls", "count", "lower"},
	{"cluster.timer_s", "s", "lower"},
	{"cluster.heads", "count", "lower"},
	{"cluster.unadmitted_at_crash", "count", "lower"},
	{"fds.handle_calls", "count", "lower"},
	{"fds.handle_s", "s", "lower"},
	{"fds.timer_calls", "count", "lower"},
	{"fds.timer_s", "s", "lower"},
	{"intercluster.handle_calls", "count", "lower"},
	{"intercluster.handle_s", "s", "lower"},
	{"intercluster.timer_calls", "count", "lower"},
	{"intercluster.timer_s", "s", "lower"},
	{"intercluster.report_tx", "count", "lower"},
	{"intercluster.report_rx", "count", "lower"},
	{"intercluster.reports_held", "count", "lower"},
	{"intercluster.rx_per_aware", "ratio", "lower"},
	{"intercluster.self_share", "ratio", "lower"},
	{"par.epoch_s", "s", "lower"},
	{"par.sends", "count", "lower"},
	{"par.deliveries", "count", "lower"},
	{"par.strips", "count", "lower"},
	{"par.speedup", "ratio", "higher"},
	{"par.efficiency", "ratio", "higher"},
	{"shard.events", "count", "lower"},
	{"shard.windows", "count", "lower"},
	{"shard.events_per_window", "count", "higher"},
	{"shard.window_us_p50", "us", "lower"},
	{"shard.window_us_p99", "us", "lower"},
	{"shard.drop_dead", "count", "lower"},
	{"shard.delivery_ratio", "ratio", "higher"},
	{"shard.speedup", "ratio", "higher"},
	{"epoch.wall_ms_p50", "ms", "lower"},
	{"epoch.wall_ms_max", "ms", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills metrics by name, taking units from a catalog.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
}

func newMetricSet(defs ...[]metricDef) *metricSet {
	s := &metricSet{m: make(map[string]metric)}
	for _, d := range defs {
		s.defs = append(s.defs, d...)
	}
	return s
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.m[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("unknown metric " + name)
}

// fill sets every catalog metric not set yet to zero and returns their
// names: the metrics this workload does not measure.
func (s *metricSet) fill() []string {
	var missing []string
	for _, d := range s.defs {
		if _, ok := s.m[d.Name]; !ok {
			s.m[d.Name] = metric{Value: 0, Unit: d.Unit}
			missing = append(missing, d.Name)
		}
	}
	return missing
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (q in [0, 1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// txMsgs is a fingerprint's transmission count: the medium's tx:<kind>
// counters on the serial engine, Sends on par and shard.
func txMsgs(fp fingerprint) int64 {
	if v, ok := fp.Counters["sends"]; ok {
		return v
	}
	var n int64
	for k, v := range fp.Counters {
		if strings.HasPrefix(k, "tx:") {
			n += v
		}
	}
	return n
}

// rxMsgs is the serial medium's completed deliveries.
func rxMsgs(fp fingerprint) int64 {
	var n int64
	for k, v := range fp.Counters {
		if strings.HasPrefix(k, "rx:") {
			n += v
		}
	}
	return n
}

// stormFields returns the indices of the fields stopped by a storm.
func stormFields(byField [][]fieldRun) []int {
	var out []int
	for i, runs := range byField {
		if runs[0].FP.StormAt != 0 {
			out = append(out, i)
		}
	}
	return out
}

// e2eMetrics reduces the runs of every field (byField[i] holds field i's
// runs, first one first) to the end-to-end metrics. tx_msgs_per_host_epoch
// pools every field's transmissions over every field's host-epochs, a
// storm-stopped field with its work up to the stop, so each storm raises
// it. The host-side figures are taken over the fields that did not storm
// (over all fields if every one did), from each field's medians over its
// runs: host_epochs_per_s as their host-epochs over their wall time, so
// each field weighs by its work, the others as medians over fields. A
// field stopped in a storm runs two to three times slower per host-epoch
// and allocates two to three times as much, and from 20% to 50% of the
// fields storm depending on the seed, so counting those fields would spread
// the host-side figures across seeds about as far as any bound allows (see
// stormSliceTxPerHost). Set-up time is the median of every build in the
// run, extra set-ups included.
func e2eMetrics(wl workload, byField [][]fieldRun, storms []int, extraSetup []float64) *metricSet {
	ms := newMetricSet(endToEnd)
	var heap, allocs, bytes []float64
	var hostEpochs, tx, calmEpochs, calmWall float64
	setup := slices.Clone(extraSetup)
	for i, runs := range byField {
		he := runs[0].hostEpochs(wl)
		hostEpochs += he
		tx += float64(runs[0].TxMsgs)
		for _, r := range runs {
			setup = append(setup, r.SetupS)
		}
		if slices.Contains(storms, i) && len(storms) < len(byField) {
			continue
		}
		var wall, hp, al, by []float64
		for _, r := range runs {
			wall = append(wall, r.WallS)
			hp = append(hp, float64(r.HeapLive))
			al = append(al, float64(r.Allocs))
			by = append(by, float64(r.Bytes))
		}
		calmEpochs += he
		calmWall += median(wall)
		heap = append(heap, median(hp)/1e6)
		allocs = append(allocs, median(al)/he)
		bytes = append(bytes, median(by)/he)
	}
	ms.set("host_epochs_per_s", calmEpochs/calmWall)
	ms.set("setup_s", median(setup))
	ms.set("heap_live_mb", median(heap))
	ms.set("allocs_per_host_epoch", median(allocs))
	ms.set("alloc_bytes_per_host_epoch", median(bytes))
	ms.set("tx_msgs_per_host_epoch", tx/hostEpochs)
	return ms
}

// qualityMetrics pools the detection outcome of the fields that ran to
// their horizon (a stopped field's wave is cut short). Latencies are
// sim time from crash to awareness over (victim, observer) pairs on the
// serial engine (sampled every 500 ms by the world's monitor) and over
// victims' first detection on shard.
func qualityMetrics(wl workload, fps []fingerprint) (*metricSet, []string) {
	ms := newMetricSet(quality)
	if wl.Crashes == 0 {
		return ms, ms.fill()
	}
	var unaware, pairs, falseSusp, obsPairs float64
	var lat []float64
	for _, fp := range fps {
		for _, a := range fp.Aware {
			unaware += float64(fp.Operational - a)
			pairs += float64(fp.Operational)
		}
		falseSusp += float64(fp.FalseSuspicions)
		obsPairs += float64(fp.Operational) * float64(fp.Operational-1)
		for _, l := range fp.Latencies {
			lat = append(lat, time.Duration(l).Seconds())
		}
	}
	ms.set("unaware_share", unaware/pairs)
	if wl.Engine == engineSerial {
		ms.set("false_suspect_share", falseSusp/obsPairs)
	}
	if wl.Engine != enginePar {
		ms.set("detect_latency_s_p50", median(lat))
		ms.set("detect_latency_samples", float64(len(lat)))
	}
	if wl.Engine == engineSerial {
		ms.set("detect_latency_s_p99", quantile(lat, 0.99))
	}
	return ms, ms.fill()
}
