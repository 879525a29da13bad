package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"clusterfds/internal/radio"
	"clusterfds/internal/scenario"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// fingerprint is the simulated outcome of one field run. Two runs of the
// same field must produce equal fingerprints: repeated runs in one
// invocation, the traced and the untraced serial world, and par or shard at
// different worker counts. Fields an engine does not expose stay zero.
type fingerprint struct {
	Counters        map[string]int64  `json:"counters"`
	Steps           uint64            `json:"steps,omitempty"`
	Operational     int               `json:"operational"`
	Aware           []int             `json:"aware,omitempty"`
	FalseSuspicions int               `json:"false_suspicions"`
	Latencies       []int64           `json:"-"`
	Hashes          map[string]string `json:"hashes,omitempty"`
	EnergyBits      uint64            `json:"energy_bits,omitempty"`
	CrashEpoch      int               `json:"crash_epoch"`
	Unadmitted      int               `json:"unadmitted_at_crash"`
	Heads           int               `json:"heads"`
	// StormAt is the sim time at which the field was stopped because it
	// entered a failure-report storm (see stormed); 0 if it never did.
	StormAt int64 `json:"storm_at_ns,omitempty"`
}

// diff reports the first difference between two fingerprints, or nil.
func (a fingerprint) diff(b fingerprint) error {
	if err := diffMaps("counter", a.Counters, b.Counters); err != nil {
		return err
	}
	if err := diffMaps("hash", a.Hashes, b.Hashes); err != nil {
		return err
	}
	switch {
	case a.Steps != b.Steps:
		return fmt.Errorf("kernel steps: %d != %d", a.Steps, b.Steps)
	case a.Operational != b.Operational:
		return fmt.Errorf("operational hosts: %d != %d", a.Operational, b.Operational)
	case !slices.Equal(a.Aware, b.Aware):
		return fmt.Errorf("aware hosts per victim: %v != %v", a.Aware, b.Aware)
	case a.FalseSuspicions != b.FalseSuspicions:
		return fmt.Errorf("false suspicions: %d != %d", a.FalseSuspicions, b.FalseSuspicions)
	case !slices.Equal(a.Latencies, b.Latencies):
		return fmt.Errorf("detection latencies differ (%d vs %d samples)", len(a.Latencies), len(b.Latencies))
	case a.EnergyBits != b.EnergyBits:
		return fmt.Errorf("energy spent: %v != %v", math.Float64frombits(a.EnergyBits), math.Float64frombits(b.EnergyBits))
	case a.CrashEpoch != b.CrashEpoch:
		return fmt.Errorf("crash epoch: %d != %d", a.CrashEpoch, b.CrashEpoch)
	case a.Unadmitted != b.Unadmitted:
		return fmt.Errorf("unadmitted at crash: %d != %d", a.Unadmitted, b.Unadmitted)
	case a.Heads != b.Heads:
		return fmt.Errorf("clusterheads: %d != %d", a.Heads, b.Heads)
	case a.StormAt != b.StormAt:
		return fmt.Errorf("storm stop: %v != %v", time.Duration(a.StormAt), time.Duration(b.StormAt))
	}
	return nil
}

// diffMaps reports the first key, in sorted order, whose value differs
// between a and b; a key missing on one side reads as the zero value.
func diffMaps[V comparable](what string, a, b map[string]V) error {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Errorf("%s %s: %v != %v", what, k, a[k], b[k])
		}
	}
	return nil
}

// serialWorld is what driveSerial needs from a serial world. The
// plain world is scenario.Build's; the traced one is assembled from the same
// constructors with every seam wrapped (traced.go).
type serialWorld interface {
	run(until sim.Time)
	census() scenario.ClusterCensus
	crashRandomAt(at sim.Time, n int) []wire.NodeID
	// txMsgs is the medium's transmissions so far.
	txMsgs() int64
	// outcome fills the engine-observed part of the fingerprint.
	outcome(victims []wire.NodeID) fingerprint
}

// plainWorld adapts scenario.World, untouched.
type plainWorld struct{ w *scenario.World }

func (p plainWorld) run(until sim.Time)             { p.w.Run(until) }
func (p plainWorld) census() scenario.ClusterCensus { return p.w.Census() }
func (p plainWorld) crashRandomAt(at sim.Time, n int) []wire.NodeID {
	return p.w.CrashRandomAt(at, n)
}
func (p plainWorld) txMsgs() int64 { return mediumTx(p.w.Medium) }

// mediumTx sums the medium's tx:<kind> counters without building a map.
func mediumTx(m *radio.Medium) int64 {
	var n int64
	for k := wire.Kind(1); k < wire.KindEnd; k++ {
		n += m.Sent(k)
	}
	return n
}

func (p plainWorld) outcome(victims []wire.NodeID) fingerprint {
	fp := fingerprint{
		Counters:        p.w.MessageCounts(),
		Steps:           p.w.Kernel.Steps(),
		Operational:     len(p.w.Operational()),
		FalseSuspicions: len(p.w.FalseSuspicions()),
		EnergyBits:      math.Float64bits(p.w.TotalEnergySpent()),
	}
	for _, v := range victims {
		aware, _ := p.w.Completeness(v)
		fp.Aware = append(fp.Aware, aware)
		for _, l := range p.w.DetectionLatencies(v) {
			fp.Latencies = append(fp.Latencies, int64(l))
		}
	}
	return fp
}

func serialConfig(wl workload, seed int64) scenario.Config {
	return scenario.Config{Seed: seed, Nodes: wl.Nodes, FieldSide: wl.Side, LossProb: wl.Loss}
}

// Storm rules. In formation, steady state and the epochs after a 10-host
// crash wave, no 10 ms of sim time carried more than 1.2 transmissions per
// host in the fields probed (a host sends at most once per FDS round), nor
// more than 1.8 in an epoch that went on to storm in the next one; an epoch
// carries at most about 15. Some fields instead enter a failure-report
// storm: 2.4 to 10 transmissions per host per 10 ms within the epoch's
// first 100 ms, about 100 per host in the epoch, several seconds of host
// time per storm epoch at 1000 hosts, recurring for several epochs. Which fields
// storm depends on their topology, so a field is stopped as soon as a storm
// shows: the serial engine at the first 10 ms slice over stormSliceTxPerHost,
// par (which advances only whole epochs) after the first epoch over
// stormEpochTxPerHost. A stopped field's transmissions up to the stop (on
// par, up to the start of its storm epoch) count in tx_msgs_per_host_epoch;
// see e2eMetrics.
const (
	stormSliceTxPerHost = 2
	stormEpochTxPerHost = 30
)

// stormed reports whether tx transmissions in one stretch of sim time mark
// a storm, at perHost transmissions per host for that stretch.
func stormed(wl workload, tx int64, perHost float64) bool {
	return float64(tx) > perHost*float64(wl.Nodes)
}

// stormCheckEvery is the sim-time slice after which driveSerial looks for
// a storm. Slicing RunUntil changes nothing simulated.
const stormCheckEvery = sim.Time(10 * time.Millisecond)

// driveSerial advances a serial world through the workload's horizon, or
// until it storms. A crash workload starts its wave at the midpoint of the
// first candidate epoch whose census shows no unadmitted host, and ends
// wl.After epochs after it. It returns the field's fingerprint, the wall
// time spent inside the simulation, that time per simulated epoch in
// milliseconds (census queries excluded), and the sim time reached.
func driveSerial(w serialWorld, wl workload) (fingerprint, time.Duration, []float64, sim.Time) {
	crashEpoch, unadmitted := -1, 0
	var victims []wire.NodeID
	var total, spent time.Duration
	var epochMs []float64
	var now, stormAt sim.Time
	advance := func(to sim.Time) {
		for now < to && stormAt == 0 {
			next := min(now+stormCheckEvery, to)
			tx := w.txMsgs()
			t0 := time.Now()
			w.run(next)
			spent += time.Since(t0)
			now = next
			if stormed(wl, w.txMsgs()-tx, stormSliceTxPerHost) {
				stormAt = now
			}
		}
	}
	horizon := wl.Epochs
	for e := 0; e < horizon && stormAt == 0; e++ {
		spent = 0
		if wl.Crashes > 0 && crashEpoch < 0 && e >= wl.CrashFrom && e <= wl.CrashLast {
			advance(epochMid(e))
			if u := w.census().Unmarked; stormAt == 0 && (u == 0 || e == wl.CrashLast) {
				crashEpoch, unadmitted = e, u
				victims = w.crashRandomAt(epochMid(e), wl.Crashes)
				horizon = e + 1 + wl.After
			}
		}
		advance(epochEnd(e))
		epochMs = append(epochMs, float64(spent)/1e6)
		total += spent
	}
	fp := w.outcome(victims)
	fp.CrashEpoch, fp.Unadmitted, fp.StormAt = crashEpoch, unadmitted, int64(stormAt)
	fp.Heads = w.census().Clusterheads
	return fp, total, epochMs, now
}
