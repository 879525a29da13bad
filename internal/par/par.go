// Package par runs one full-fidelity replica — real node.Host runtimes with
// the production cluster/fds/intercluster protocol stack — across a pool of
// worker threads, putting idle cores to work inside a single simulation
// instead of only across Monte-Carlo replicas.
//
// # Architecture
//
// The field is cut into a FIXED number of vertical strips (a pure function of
// the configuration, never of the worker count). Each strip owns the hosts
// whose x-coordinate falls inside it: their own *sim.Kernel (heap, virtual
// clock), their trace buffer, and their decode scratch. Strip width defaults
// to the radio range, so most traffic — everything within a cluster, and most
// inter-cluster relays — stays strip-local and goes through the strip kernel
// exactly as in the serial engine.
//
// Strips advance in lockstep conservative windows of width W = Radio.MinDelay,
// the lower bound on delivery latency (the same lookahead internal/shard uses
// at million-host scale). An event processed at time t inside window
// (t0, t0+W] can reach another strip only through a radio delivery landing at
// t+delay >= t+W > t0+W-ε — at or after the window's end — so strips process
// a window in parallel with no communication. Cross-strip deliveries are
// batched into per-(src,dst) outboxes and injected at the serial window
// barrier. Between bursts of activity the barrier jumps the window start to
// the earliest pending event over all strips, so the 10-second idle stretch
// between FDS epochs costs one barrier, not ten thousand.
//
// # Determinism at every worker count
//
// Results are a pure function of Config; the Workers field changes wall-clock
// time only. That holds by construction:
//
//   - The strip partition and the window grid are computed serially from the
//     configuration and the strips' (deterministic) event streams.
//   - Every random draw a protocol makes comes from its host's private
//     *rand.Rand, seeded from (Seed, NID) — never from a kernel shared with
//     other hosts. Loss and delay are drawn by the SENDER, from the sender's
//     stream, for every host on the sender's static neighbor roster
//     regardless of the neighbor's aliveness (aliveness is checked at
//     delivery, in the receiver's strip), so stream consumption never depends
//     on remote state.
//   - Cross-strip deliveries are injected at the barrier in sorted
//     (at, src strip, src seq) order, where src seq is the outbox append
//     counter — itself deterministic because strip execution is.
//   - Trace events are buffered per strip and folded strip-by-strip into the
//     hash; workers never touch another strip's buffer.
//
// # Buffer ownership
//
// The strip transport is encode-once and pooled, like radio.Medium, and
// keeps DESIGN.md §12 rule 1: every pool has one single-threaded owner.
// Each strip owns a free list of transmission buffers and a free list of
// delivery records. Send encodes a message once into a buffer from the
// sending strip's list and takes one reference per scheduled delivery,
// local or cross-strip; a buffer nobody survives the loss draws for goes
// straight back. A delivery record is taken by the strip that schedules it
// (the sender for local deliveries, the destination at the barrier for
// cross-strip ones) and returned by that strip once the delivery has run.
// A destination strip only reads a foreign buffer's bytes and never touches
// its reference count: after the delivery it queues the buffer on its own
// release list, and the serial barrier, with no worker running, drops those
// references and hands every emptied buffer back to its owner's free list.
// When RunEpochs returns, every release list is empty.
//
// The topology is static (no mobility, no replenishment) and there is no
// global monitor: completeness is probed serially after the run.
package par

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// Config describes a parallel replica. Results are a pure function of every
// field except Workers.
type Config struct {
	// Seed drives all randomness: placement, per-host streams, crash picks.
	Seed int64
	// Nodes is the host population, numbered 1..Nodes.
	Nodes int
	// FieldSide is the deployment square's edge length in meters.
	FieldSide float64
	// LossProb is the per-receiver loss probability p.
	LossProb float64
	// Timing is the protocol schedule; zero means cluster.DefaultTiming().
	Timing cluster.Timing
	// Strips is the fixed partition count; values < 1 pick
	// max(1, min(16, FieldSide/Range)) — strip width ≈ the radio range.
	Strips int
	// Workers is the pool draining strips inside a window; < 1 means 1. Any
	// value produces bit-identical results.
	Workers int
	// CollectTrace buffers protocol trace events per strip so TraceHash
	// covers them; leave false in benchmarks (hosts then skip building
	// detail strings entirely).
	CollectTrace bool
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 100
	}
	if c.FieldSide <= 0 {
		c.FieldSide = 500
	}
	if !c.Timing.Valid() {
		c.Timing = cluster.DefaultTiming()
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// crossEntry is one cross-strip delivery waiting at the window barrier.
type crossEntry struct {
	at   sim.Time
	src  int32  // source strip, part of the canonical injection key
	seq  uint32 // source strip's outbox append counter
	to   uint32 // receiver host index
	from wire.NodeID
	tb   *txBuf
}

// crossOrder is the canonical barrier injection order. (at, src, seq) is
// unique per entry, so an unstable sort is deterministic.
func crossOrder(a, b crossEntry) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// txBuf is one transmission's encoded bytes, shared by every delivery of
// that transmission. It belongs to the strip that encoded it: refs changes
// only on that strip's worker or at the serial barrier, and the buffer goes
// back to the owner's free list when the last delivery has run.
type txBuf struct {
	buf   []byte
	refs  int32
	owner int32
}

// strip is one vertical slice of the field with its own kernel and buffers.
// During a window, a strip is touched by exactly one worker; everything in
// here (and every host row the strip owns) is single-threaded by that.
type strip struct {
	k       *sim.Kernel
	out     [][]crossEntry // per destination strip, this window's sends
	seqCtr  uint32
	scratch *wire.DecodeScratch
	events  []trace.Event // protocol trace buffer (CollectTrace)
	sends   uint64
	deliv   uint64

	txFree  []*txBuf       // this strip's idle transmission buffers
	delFree []*parDelivery // this strip's idle delivery records
	release []*txBuf       // foreign buffers delivered here this window
}

// takeTxBuf pops an idle transmission buffer or makes one.
func (st *strip) takeTxBuf(owner int32) *txBuf {
	if n := len(st.txFree); n > 0 {
		tb := st.txFree[n-1]
		st.txFree[n-1] = nil
		st.txFree = st.txFree[:n-1]
		return tb
	}
	return &txBuf{owner: owner}
}

// takeDelivery pops an idle delivery record. The list grows by blocks of 64
// records in one allocation (DESIGN.md §12 rule 4).
func (st *strip) takeDelivery() *parDelivery {
	if len(st.delFree) == 0 {
		blk := make([]parDelivery, 64)
		for i := range blk {
			st.delFree = append(st.delFree, &blk[i])
		}
	}
	n := len(st.delFree)
	d := st.delFree[n-1]
	st.delFree[n-1] = nil
	st.delFree = st.delFree[:n-1]
	return d
}

// stripSink appends trace events to the owning strip's buffer.
type stripSink struct{ s *strip }

func (ss stripSink) Emit(e trace.Event) { ss.s.events = append(ss.s.events, e) }

// hostRuntime is the per-host transport.Runtime facade: the strip's kernel
// for time and scheduling, a private seeded source for randomness.
type hostRuntime struct {
	k   *sim.Kernel
	rng *rand.Rand
}

func (r *hostRuntime) Now() sim.Time                                 { return r.k.Now() }
func (r *hostRuntime) Schedule(d sim.Time, fn sim.Handler) sim.Timer { return r.k.Schedule(d, fn) }
func (r *hostRuntime) At(at sim.Time, fn sim.Handler) sim.Timer      { return r.k.At(at, fn) }
func (r *hostRuntime) Rand() *rand.Rand                              { return r.rng }
func (r *hostRuntime) ScheduleArg(d sim.Time, fn sim.ArgHandler, a any) sim.Timer {
	return r.k.ScheduleArg(d, fn, a)
}
func (r *hostRuntime) AtBatched(at sim.Time, fn sim.ArgHandler, a any) { r.k.AtBatched(at, fn, a) }

var (
	_ transport.Runtime    = (*hostRuntime)(nil)
	_ transport.ArgClock   = (*hostRuntime)(nil)
	_ transport.BatchClock = (*hostRuntime)(nil)
)

// stripPort is the transport facade handed to the hosts of one strip.
type stripPort struct {
	e *Engine
	s int32
}

func (p *stripPort) Attach(r transport.Receiver)           { p.e.hosts[r.ID()-1] = r.(*node.Host) }
func (p *stripPort) Send(from wire.NodeID, m wire.Message) { p.e.send(p.s, from, m) }
func (p *stripPort) Energy(id wire.NodeID) float64         { return p.e.energyOf(id) }
func (p *stripPort) Neighbors(at geo.Point, exclude wire.NodeID) []wire.NodeID {
	return p.e.neighborsAt(at, exclude)
}
func (p *stripPort) UpdatePos(wire.NodeID, geo.Point) {
	panic("par: static topology — mobility is not supported")
}

// parDelivery is one delivery scheduled on strip s's kernel. It belongs to
// strip s's free list.
type parDelivery struct {
	e    *Engine
	s    int32
	to   uint32
	from wire.NodeID
	tb   *txBuf
}

// Engine is a built, runnable parallel replica.
type Engine struct {
	cfg    Config
	params radio.Params

	strips  []strip
	stripOf []int32 // host idx -> strip

	hosts []*node.Host
	fdss  []*fds.Protocol
	cls   []*cluster.Protocol
	rngs  []*rand.Rand
	pos   []geo.Point
	spent []float64 // per-host energy expenditure; row owned by its strip

	// Static neighbor CSR in ascending receiver index per sender.
	nbStart []int32
	nbList  []uint32

	crashSched map[wire.NodeID]sim.Time // harness-side crash schedule
	ctrl       *rand.Rand               // control stream for CrashRandom picks

	pend []crossEntry // barrier scratch, reused across windows

	epochsRun int
	now       sim.Time
}

// deliverFn completes one delivery on strip d.s, then gives back what it
// held: the record to the strip's own free list, and the buffer reference
// either directly (the strip owns the buffer) or through the strip's
// release list for the barrier to drop (the buffer is foreign).
var deliverFn sim.ArgHandler = func(a any) {
	d := a.(*parDelivery)
	e, tb := d.e, d.tb
	e.deliver(d.s, d.to, d.from, tb.buf)
	st := &e.strips[d.s]
	if tb.owner != d.s {
		st.release = append(st.release, tb)
	} else if tb.refs--; tb.refs == 0 {
		st.txFree = append(st.txFree, tb)
	}
	d.tb = nil
	st.delFree = append(st.delFree, d)
}

// deliver hands payload to host `to` on strip s: aliveness check at the
// receiver, energy charge, decode into the strip scratch, dispatch.
func (e *Engine) deliver(s int32, to uint32, from wire.NodeID, payload []byte) {
	h := e.hosts[to]
	if h == nil || !h.Operational() {
		return
	}
	e.spent[to] += e.params.RxByteCost * float64(len(payload))
	m, err := wire.DecodeInto(e.strips[s].scratch, payload)
	if err != nil {
		panic(fmt.Sprintf("par: decode on delivery: %v", err))
	}
	e.strips[s].deliv++
	h.Deliver(m, from)
}

// send broadcasts m from host `from` (which lives in strip s). Loss and delay
// are drawn from the sender's stream for every static roster neighbor, in
// ascending receiver order, independent of receiver state.
func (e *Engine) send(s int32, from wire.NodeID, m wire.Message) {
	idx := uint32(from - 1)
	st := &e.strips[s]
	tb := st.takeTxBuf(s)
	tb.buf = wire.EncodeAppend(tb.buf[:0], m)
	e.spent[idx] += e.params.TxBaseCost + e.params.TxByteCost*float64(len(tb.buf))
	st.sends++
	rng := e.rngs[idx]
	span := int64(e.params.MaxDelay - e.params.MinDelay)
	now := st.k.Now()
	for _, nb := range e.nbList[e.nbStart[idx]:e.nbStart[idx+1]] {
		if p := e.params.LossProb; p > 0 && rng.Float64() < p {
			continue
		}
		delay := e.params.MinDelay
		if span > 0 {
			delay += sim.Time(rng.Int63n(span + 1))
		}
		tb.refs++
		if d := e.stripOf[nb]; d == s {
			dl := st.takeDelivery()
			dl.e, dl.s, dl.to, dl.from, dl.tb = e, s, nb, from, tb
			st.k.ScheduleArg(delay, deliverFn, dl)
		} else {
			st.out[d] = append(st.out[d], crossEntry{
				at: now + delay, src: s, seq: st.seqCtr,
				to: nb, from: from, tb: tb,
			})
			st.seqCtr++
		}
	}
	if tb.refs == 0 {
		// Nobody survived the loss draws; recycle the buffer immediately.
		st.txFree = append(st.txFree, tb)
	}
}

// energyOf mirrors the radio medium's budget formula: initial plus harvest
// minus expenditure, floored at zero. Only the owning strip calls it (via the
// host's own protocols), so reading the spent row is race-free.
func (e *Engine) energyOf(id wire.NodeID) float64 {
	idx := id - 1
	t := e.strips[e.stripOf[idx]].k.Now()
	v := e.params.InitialEnergy + e.params.HarvestRate*float64(t)/1e9 - e.spent[idx]
	if v < 0 {
		return 0
	}
	return v
}

// neighborsAt scans the static placement for operational hosts in range of
// at. Provided for transport completeness; the cluster stack never calls it
// on the hot path.
func (e *Engine) neighborsAt(at geo.Point, exclude wire.NodeID) []wire.NodeID {
	var out []wire.NodeID
	r2 := e.params.Range * e.params.Range
	for i, p := range e.pos {
		id := wire.NodeID(i + 1)
		if id == exclude || !e.hosts[i].Operational() {
			continue
		}
		dx, dy := p.X-at.X, p.Y-at.Y
		if dx*dx+dy*dy <= r2 {
			out = append(out, id)
		}
	}
	return out
}

// Build lays out the field, partitions it into strips, and boots every host.
func Build(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	params := radio.Defaults(cfg.LossProb)

	nStrips := cfg.Strips
	if nStrips < 1 {
		nStrips = int(cfg.FieldSide / params.Range)
		if nStrips > 16 {
			nStrips = 16
		}
		if nStrips < 1 {
			nStrips = 1
		}
	}

	n := cfg.Nodes
	e := &Engine{
		cfg:        cfg,
		params:     params,
		strips:     make([]strip, nStrips),
		stripOf:    make([]int32, n),
		hosts:      make([]*node.Host, n),
		fdss:       make([]*fds.Protocol, n),
		cls:        make([]*cluster.Protocol, n),
		rngs:       make([]*rand.Rand, n),
		pos:        make([]geo.Point, n),
		spent:      make([]float64, n),
		crashSched: make(map[wire.NodeID]sim.Time),
		ctrl:       rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
	}
	for s := range e.strips {
		e.strips[s].k = sim.New(cfg.Seed + int64(s) + 1)
		e.strips[s].out = make([][]crossEntry, nStrips)
		e.strips[s].scratch = wire.NewDecodeScratch()
	}

	// Placement: one (x, y) pair per host in NID order from a dedicated
	// source — a pure function of Seed, independent of Strips.
	place := rand.New(rand.NewSource(cfg.Seed))
	stripW := cfg.FieldSide / float64(nStrips)
	for i := 0; i < n; i++ {
		e.pos[i] = geo.Point{X: place.Float64() * cfg.FieldSide, Y: place.Float64() * cfg.FieldSide}
		s := int(e.pos[i].X / stripW)
		if s >= nStrips {
			s = nStrips - 1
		}
		e.stripOf[i] = int32(s)
		e.rngs[i] = rand.New(rand.NewSource(cfg.Seed ^ (int64(i+1) * 0x9E3779B97F4A7C)))
	}

	// Static neighbor CSR: ascending receiver index per sender.
	e.nbStart = make([]int32, n+1)
	r2 := params.Range * params.Range
	inRange := func(a, b int) bool {
		dx, dy := e.pos[a].X-e.pos[b].X, e.pos[a].Y-e.pos[b].Y
		return dx*dx+dy*dy <= r2
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && inRange(i, j) {
				e.nbStart[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		e.nbStart[i+1] += e.nbStart[i]
	}
	e.nbList = make([]uint32, e.nbStart[n])
	fill := make([]int32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && inRange(i, j) {
				e.nbList[e.nbStart[i]+fill[i]] = uint32(j)
				fill[i]++
			}
		}
	}

	// Hosts: the production stack on a per-host runtime facade, booted at
	// time zero exactly like scenario.Build.
	ports := make([]*stripPort, nStrips)
	for s := range ports {
		ports[s] = &stripPort{e: e, s: int32(s)}
	}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i + 1)
		s := e.stripOf[i]
		var sink trace.Sink = trace.Nop{}
		if cfg.CollectTrace {
			sink = stripSink{s: &e.strips[s]}
		}
		rt := &hostRuntime{k: e.strips[s].k, rng: e.rngs[i]}
		h := node.New(rt, ports[s], id, e.pos[i], node.WithTrace(sink))
		cl := cluster.New(cluster.DefaultConfig())
		f := fds.New(fds.DefaultConfig(cfg.Timing), cl)
		fw := intercluster.New(intercluster.DefaultConfig(cfg.Timing), cl, f)
		h.Use(cl)
		h.Use(f)
		h.Use(fw)
		e.cls[i] = cl
		e.fdss[i] = f
		h.Boot()
	}
	return e
}

// CrashAt schedules a fail-stop crash of id at the given absolute time, which
// must not be earlier than the last RunEpochs horizon. Call between runs
// (serial), never concurrently with one.
func (e *Engine) CrashAt(at sim.Time, id wire.NodeID) {
	if id < 1 || int(id) > len(e.hosts) {
		panic(fmt.Sprintf("par: no host %v", id))
	}
	h := e.hosts[id-1]
	e.crashSched[id] = at
	e.strips[e.stripOf[id-1]].k.At(at, func() {
		if !h.Crashed() {
			h.Crash()
		}
	})
}

// CrashRandomAt schedules count crashes of distinct not-yet-scheduled hosts
// at the given time, picked deterministically from the control stream.
func (e *Engine) CrashRandomAt(at sim.Time, count int) []wire.NodeID {
	var candidates []wire.NodeID
	for i := range e.hosts {
		id := wire.NodeID(i + 1)
		if _, done := e.crashSched[id]; !done && !e.hosts[i].Crashed() {
			candidates = append(candidates, id)
		}
	}
	e.ctrl.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if count > len(candidates) {
		count = len(candidates)
	}
	picked := append([]wire.NodeID(nil), candidates[:count]...)
	for _, id := range picked {
		e.CrashAt(at, id)
	}
	slices.Sort(picked)
	return picked
}

// RunEpochs advances the replica through n more heartbeat intervals.
func (e *Engine) RunEpochs(n int) {
	e.epochsRun += n
	e.runTo(e.cfg.Timing.EpochStart(wire.Epoch(e.epochsRun)))
}

// runTo is the conservative window loop: jump to the earliest pending event,
// drain one W-wide window across all strips in parallel, merge outboxes at
// the serial barrier, repeat.
func (e *Engine) runTo(deadline sim.Time) {
	w := e.params.MinDelay
	nStrips := len(e.strips)
	nw := e.cfg.Workers
	if nw > nStrips {
		nw = nStrips
	}

	var stripIdx int64
	var tend sim.Time
	drain := func() {
		for {
			i := atomic.AddInt64(&stripIdx, 1) - 1
			if i >= int64(nStrips) {
				return
			}
			e.strips[i].k.RunUntil(tend)
		}
	}

	var start chan sim.Time
	var done chan struct{}
	if nw > 1 {
		start = make(chan sim.Time)
		done = make(chan struct{})
		for i := 0; i < nw-1; i++ {
			go func() {
				for range start {
					drain()
					done <- struct{}{}
				}
			}()
		}
		defer close(start)
	}

	for {
		// Serial barrier: find the earliest pending event anywhere.
		tmin := deadline + 1
		for s := range e.strips {
			if t, ok := e.strips[s].k.NextEventAt(); ok && t < tmin {
				tmin = t
			}
		}
		if tmin > deadline {
			break
		}
		tend = tmin + w
		if tend > deadline {
			tend = deadline
		}

		// Parallel window: every strip advances to tend in isolation.
		atomic.StoreInt64(&stripIdx, 0)
		if nw > 1 {
			for i := 0; i < nw-1; i++ {
				start <- tend
			}
			drain()
			for i := 0; i < nw-1; i++ {
				<-done
			}
		} else {
			drain()
		}

		e.mergeOutboxes()
	}

	// Advance every idle clock to the deadline so the next call resumes
	// from a common now.
	for s := range e.strips {
		e.strips[s].k.RunUntil(deadline)
	}
	e.mergeOutboxes()
	e.now = deadline
}

// mergeOutboxes is the serial window barrier. It first drops the references
// the window's cross-strip deliveries held, returning each emptied buffer to
// its owner, then injects every pending cross-strip delivery into its
// destination kernel in canonical (at, src, seq) order, on a record from
// the destination's free list.
func (e *Engine) mergeOutboxes() {
	for d := range e.strips {
		st := &e.strips[d]
		for i, tb := range st.release {
			if tb.refs--; tb.refs == 0 {
				owner := &e.strips[tb.owner]
				owner.txFree = append(owner.txFree, tb)
			}
			st.release[i] = nil
		}
		st.release = st.release[:0]
	}
	for d := range e.strips {
		dst := &e.strips[d]
		pend := e.pend[:0]
		for s := range e.strips {
			if box := e.strips[s].out[d]; len(box) > 0 {
				pend = append(pend, box...)
				e.strips[s].out[d] = box[:0]
			}
		}
		slices.SortFunc(pend, crossOrder)
		now := dst.k.Now()
		for i := range pend {
			ce := &pend[i]
			dl := dst.takeDelivery()
			dl.e, dl.s, dl.to, dl.from, dl.tb = e, int32(d), ce.to, ce.from, ce.tb
			dst.k.ScheduleArg(ce.at-now, deliverFn, dl)
		}
		e.pend = pend[:0]
	}
}

// Now returns the last barrier time.
func (e *Engine) Now() sim.Time { return e.now }

// Strips returns the fixed partition count.
func (e *Engine) Strips() int { return len(e.strips) }

// Sends returns the fleet-wide transmission count.
func (e *Engine) Sends() uint64 {
	var t uint64
	for s := range e.strips {
		t += e.strips[s].sends
	}
	return t
}

// Deliveries returns the fleet-wide delivery count.
func (e *Engine) Deliveries() uint64 {
	var t uint64
	for s := range e.strips {
		t += e.strips[s].deliv
	}
	return t
}

// Completeness reports, for a crashed subject, how many operational hosts
// currently suspect it and how many operational hosts there are. Serial.
func (e *Engine) Completeness(subject wire.NodeID) (aware, operational int) {
	for i := range e.hosts {
		id := wire.NodeID(i + 1)
		if id == subject || e.hosts[i].Crashed() {
			continue
		}
		operational++
		if e.fdss[i].IsSuspected(subject) {
			aware++
		}
	}
	return aware, operational
}

// TraceHash folds the per-strip trace buffers (strip order, emission order
// within a strip) and every host's final failure knowledge into one hex
// digest — the parallel path's golden fingerprint. Serial.
func (e *Engine) TraceHash() string {
	h := sha256.New()
	var b [8]byte
	for s := range e.strips {
		for _, ev := range e.strips[s].events {
			binary.LittleEndian.PutUint64(b[:], uint64(ev.At))
			h.Write(b[:])
			h.Write([]byte(ev.Type))
			binary.LittleEndian.PutUint64(b[:], uint64(ev.Node))
			h.Write(b[:])
			h.Write([]byte(ev.Detail))
			h.Write([]byte{'\n'})
		}
	}
	for i := range e.hosts {
		for _, f := range e.fdss[i].KnownFailed() {
			binary.LittleEndian.PutUint64(b[:], uint64(i+1)<<32|uint64(f))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
