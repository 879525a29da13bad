package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/metrics"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/scenario"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// Layers the traced serial world attributes wall time to. Each is a module
// of the program; spans are opened only around calls through its public
// seam, from this package.
type layer int

const (
	layerSim          layer = iota // sim.Kernel.RunUntil, minus the spans below
	layerRadio                     // radio.Medium.Send (includes wire encode)
	layerNode                      // node.Host.Deliver fan-out
	layerCluster                   // cluster.Protocol Start/Handle/timers
	layerFDS                       // fds.Protocol Start/Handle/timers
	layerIntercluster              // intercluster.Protocol Start/Handle/timers
	numLayers
)

var layerNames = [numLayers]string{"sim", "radio", "node", "cluster", "fds", "intercluster"}

// What a span covers.
type spanKind int

const (
	spanRun spanKind = iota
	spanSend
	spanDeliver
	spanStart
	spanHandle
	spanTimer
	numSpanKinds
)

type spanStat struct {
	calls int64
	self  time.Duration
}

type frame struct {
	l     layer
	k     spanKind
	start time.Duration
	child time.Duration
}

// tracer times spans at the layer seams. A closing span adds its self time
// (its duration minus its children's) to a per-(layer, kind) total and to a
// per-(epoch, layer) total; no per-span record is kept, because a crash-wave
// field closes tens of millions of spans. Everything stays in memory until
// the run ends.
type tracer struct {
	base     time.Time
	stack    []frame
	stats    [numLayers][numSpanKinds]spanStat
	epoch    int
	perEpoch [][numLayers]time.Duration
	recFree  []*timerRec
	fireFn   sim.ArgHandler
}

func newTracer(epochs int) *tracer {
	t := &tracer{base: time.Now(), perEpoch: make([][numLayers]time.Duration, epochs)}
	t.fireFn = t.fire
	return t
}

func (t *tracer) begin(l layer, k spanKind) {
	t.stack = append(t.stack, frame{l: l, k: k, start: time.Since(t.base)})
}

func (t *tracer) end() {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(t.base) - f.start
	self := d - f.child
	s := &t.stats[f.l][f.k]
	s.calls++
	s.self += self
	t.perEpoch[t.epoch][f.l] += self
	if n > 0 {
		t.stack[n-1].child += d
	}
}

// current is the layer on whose behalf code is running: the innermost open
// span's layer. Timers take it as their tag.
func (t *tracer) current() layer {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1].l
	}
	return layerNode
}

// timerRec carries a scheduled callback and the layer that scheduled it.
type timerRec struct {
	fn  sim.ArgHandler
	arg any
	l   layer
}

func (t *tracer) rec(fn sim.ArgHandler, arg any) *timerRec {
	var r *timerRec
	if n := len(t.recFree); n > 0 {
		r = t.recFree[n-1]
		t.recFree = t.recFree[:n-1]
	} else {
		r = new(timerRec)
	}
	r.fn, r.arg, r.l = fn, arg, t.current()
	return r
}

func (t *tracer) fire(a any) {
	r := a.(*timerRec)
	fn, arg, l := r.fn, r.arg, r.l
	r.fn, r.arg = nil, nil
	t.recFree = append(t.recFree, r)
	t.begin(l, spanTimer)
	fn(arg)
	t.end()
}

// tracedClock is the transport.Runtime hosts bind to: it forwards every call
// to the kernel one-to-one and tags each timer with the scheduling layer.
type tracedClock struct {
	k *sim.Kernel
	t *tracer
}

var (
	_ transport.Runtime    = (*tracedClock)(nil)
	_ transport.ArgClock   = (*tracedClock)(nil)
	_ transport.BatchClock = (*tracedClock)(nil)
	_ transport.Transport  = (*tracedNet)(nil)
	_ transport.Receiver   = (*tracedReceiver)(nil)
	_ node.Protocol        = (*tracedProtocol)(nil)
)

func (c *tracedClock) Now() sim.Time    { return c.k.Now() }
func (c *tracedClock) Rand() *rand.Rand { return c.k.Rand() }

func (c *tracedClock) Schedule(d sim.Time, fn sim.Handler) sim.Timer {
	return c.k.ScheduleArg(d, c.t.fireFn, c.t.rec(runHandler, fn))
}

func (c *tracedClock) At(at sim.Time, fn sim.Handler) sim.Timer {
	return c.k.ScheduleArg(at-c.k.Now(), c.t.fireFn, c.t.rec(runHandler, fn))
}

func (c *tracedClock) ScheduleArg(d sim.Time, fn sim.ArgHandler, arg any) sim.Timer {
	return c.k.ScheduleArg(d, c.t.fireFn, c.t.rec(fn, arg))
}

func (c *tracedClock) AtBatched(at sim.Time, fn sim.ArgHandler, arg any) {
	c.k.AtBatched(at, c.t.fireFn, c.t.rec(fn, arg))
}

func runHandler(a any) { a.(sim.Handler)() }

// tracedNet wraps the radio medium: Send is spanned, and every attached
// receiver is wrapped so its Deliver is spanned.
type tracedNet struct {
	m *radio.Medium
	t *tracer
}

func (n *tracedNet) Attach(r transport.Receiver) { n.m.Attach(&tracedReceiver{r: r, t: n.t}) }

func (n *tracedNet) Send(from wire.NodeID, m wire.Message) {
	n.t.begin(layerRadio, spanSend)
	n.m.Send(from, m)
	n.t.end()
}

func (n *tracedNet) Energy(id wire.NodeID) float64 { return n.m.Energy(id) }

func (n *tracedNet) Neighbors(at geo.Point, exclude wire.NodeID) []wire.NodeID {
	return n.m.Neighbors(at, exclude)
}

func (n *tracedNet) UpdatePos(id wire.NodeID, old geo.Point) { n.m.UpdatePos(id, old) }

type tracedReceiver struct {
	r transport.Receiver
	t *tracer
}

func (r *tracedReceiver) ID() wire.NodeID   { return r.r.ID() }
func (r *tracedReceiver) Pos() geo.Point    { return r.r.Pos() }
func (r *tracedReceiver) Operational() bool { return r.r.Operational() }

func (r *tracedReceiver) Deliver(m wire.Message, from wire.NodeID) {
	r.t.begin(layerNode, spanDeliver)
	r.r.Deliver(m, from)
	r.t.end()
}

// tracedProtocol spans a protocol's Start and Handle.
type tracedProtocol struct {
	p node.Protocol
	l layer
	t *tracer
}

func (p *tracedProtocol) Start(h *node.Host) {
	p.t.begin(p.l, spanStart)
	p.p.Start(h)
	p.t.end()
}

func (p *tracedProtocol) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	p.t.begin(p.l, spanHandle)
	p.p.Handle(h, m, from)
	p.t.end()
}

// monitorPeriod and the two harness ticks below mirror scenario.World's
// detection monitor and epoch sampler, so the traced kernel executes the
// same events as the untraced one.
const monitorPeriod = sim.Time(500 * time.Millisecond)

// tracedWorld is scenario.Build's cluster-stack world, assembled from the
// same public constructors with the same configs and the same rng draw
// order, with every seam wrapped. It must reproduce the untraced world's
// counters exactly; the benchmark checks that it does.
type tracedWorld struct {
	k     *sim.Kernel
	m     *radio.Medium
	t     *tracer
	hosts []*node.Host
	cls   []*cluster.Protocol
	fdss  []*fds.Protocol
	ics   []*intercluster.Protocol

	crashedAt      map[wire.NodeID]sim.Time
	firstSuspected map[wire.NodeID]map[wire.NodeID]sim.Time
	pendingPeak    int // largest Pending() after any run call, i.e. every stormCheckEvery
}

func buildTraced(cfg scenario.Config, epochs int) *tracedWorld {
	k := sim.New(cfg.Seed)
	reg := metrics.NewRegistry()
	m := radio.New(k, radio.Defaults(cfg.LossProb), radio.WithTrace(trace.Nop{}), radio.WithMetrics(reg))
	t := newTracer(epochs)
	w := &tracedWorld{
		k: k, m: m, t: t,
		crashedAt:      make(map[wire.NodeID]sim.Time),
		firstSuspected: make(map[wire.NodeID]map[wire.NodeID]sim.Time),
	}
	clock := &tracedClock{k: k, t: t}
	net := &tracedNet{m: m, t: t}
	field := geo.NewRect(cfg.FieldSide, cfg.FieldSide)
	for i := 0; i < cfg.Nodes; i++ {
		id := wire.NodeID(i + 1)
		h := node.New(clock, net, id, geo.UniformInRect(k.Rand(), field), node.WithTrace(trace.Nop{}))
		cl := cluster.New(cluster.DefaultConfig())
		fcfg := fds.DefaultConfig(timing)
		fcfg.PeerForwarding = true
		fcfg.Metrics = reg
		f := fds.New(fcfg, cl)
		icfg := intercluster.DefaultConfig(timing)
		icfg.BGWAssist = true
		icfg.ImplicitAcks = true
		fw := intercluster.New(icfg, cl, f)
		h.Use(&tracedProtocol{p: cl, l: layerCluster, t: t})
		h.Use(&tracedProtocol{p: f, l: layerFDS, t: t})
		h.Use(&tracedProtocol{p: fw, l: layerIntercluster, t: t})
		w.hosts = append(w.hosts, h)
		w.cls = append(w.cls, cl)
		w.fdss = append(w.fdss, f)
		w.ics = append(w.ics, fw)
		h.Boot()
	}
	var monitor, sampler func()
	monitor = func() {
		now := k.Now()
		for subject := range w.crashedAt {
			obs := w.firstSuspected[subject]
			if obs == nil {
				obs = make(map[wire.NodeID]sim.Time)
				w.firstSuspected[subject] = obs
			}
			for i, h := range w.hosts {
				id := h.ID()
				if id == subject || h.Crashed() {
					continue
				}
				if _, done := obs[id]; done {
					continue
				}
				if w.fdss[i].IsSuspected(subject) {
					obs[id] = now
				}
			}
		}
		k.Schedule(monitorPeriod, monitor)
	}
	sampler = func() { k.Schedule(timing.Interval, sampler) }
	k.Schedule(monitorPeriod, monitor)
	k.Schedule(timing.Interval, sampler)
	return w
}

// run spans one RunUntil call and files its time under the epoch it ends in.
func (w *tracedWorld) run(until sim.Time) {
	w.t.epoch = int((until - 1) / timing.Interval)
	w.t.begin(layerSim, spanRun)
	w.k.RunUntil(until)
	w.t.end()
	if p := w.k.Pending(); p > w.pendingPeak {
		w.pendingPeak = p
	}
}

func (w *tracedWorld) census() scenario.ClusterCensus {
	var c scenario.ClusterCensus
	for i, h := range w.hosts {
		if h.Crashed() {
			continue
		}
		v := w.cls[i].View()
		switch {
		case !v.Marked:
			c.Unmarked++
		case v.IsCH:
			c.Clusterheads++
		default:
			c.Members++
			if v.IsGW() {
				c.Gateways++
			}
		}
	}
	return c
}

// crashRandomAt mirrors scenario.World.CrashRandomAt draw for draw.
func (w *tracedWorld) crashRandomAt(at sim.Time, n int) []wire.NodeID {
	var candidates []wire.NodeID
	for _, h := range w.hosts {
		if _, scheduled := w.crashedAt[h.ID()]; !scheduled && !h.Crashed() {
			candidates = append(candidates, h.ID())
		}
	}
	w.k.Rand().Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	picked := candidates[:min(n, len(candidates))]
	for _, id := range picked {
		h := w.hosts[id-1]
		w.k.At(at, func() {
			if !h.Crashed() {
				h.Crash()
				w.crashedAt[h.ID()] = w.k.Now()
			}
		})
	}
	sorted := append([]wire.NodeID(nil), picked...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

func (w *tracedWorld) outcome(victims []wire.NodeID) fingerprint {
	fp := fingerprint{
		Counters:   w.m.Counters(),
		Steps:      w.k.Steps(),
		EnergyBits: math.Float64bits(w.m.TotalEnergySpent()),
	}
	for i, h := range w.hosts {
		if h.Crashed() {
			continue
		}
		fp.Operational++
		for _, s := range w.fdss[i].KnownFailed() {
			if int(s) >= 1 && int(s) <= len(w.hosts) && !w.hosts[s-1].Crashed() {
				fp.FalseSuspicions++
			}
		}
	}
	for _, v := range victims {
		aware := 0
		for i, h := range w.hosts {
			if h.ID() != v && !h.Crashed() && w.fdss[i].IsSuspected(v) {
				aware++
			}
		}
		fp.Aware = append(fp.Aware, aware)
		var lat []int64
		if crash, ok := w.crashedAt[v]; ok {
			for _, at := range w.firstSuspected[v] {
				lat = append(lat, int64(at-crash))
			}
		}
		slices.Sort(lat)
		fp.Latencies = append(fp.Latencies, lat...)
	}
	return fp
}

func (w *tracedWorld) txMsgs() int64 { return mediumTx(w.m) }

// reportsHeld is the number of failure-report states every host holds.
func (w *tracedWorld) reportsHeld() int {
	n := 0
	for _, ic := range w.ics {
		n += ic.ReportCount()
	}
	return n
}
