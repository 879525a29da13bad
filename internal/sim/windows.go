package sim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Windows is the conservative-window coordinator of the parallel engines
// (internal/par and internal/shard). The world is cut into Parts
// partitions, each with its own event queue, and no event reaches another
// partition sooner than Width after it runs. The coordinator repeats: scan
// serially for the earliest pending event t; drain the half-open window
// [t, t+Width) of every partition on a worker pool, where no partition can
// affect another; run the serial barrier, which delivers the window's
// cross-partition sends. The barrier must leave no event before the end of
// the window it follows — such an event would run out of order — and the
// next scan panics if it does. Results never depend on Workers.
type Windows struct {
	// Parts is the partition count.
	Parts int
	// Workers is the pool size; < 1 means 1, and more than Parts are idle.
	Workers int
	// Width is the lookahead W: the least latency of any cross-partition
	// event.
	Width Time

	// NextAt returns partition p's earliest pending event. Serial.
	NextAt func(p int) (Time, bool)
	// Drain runs partition p's events before end. It runs on a worker and
	// may touch only partition p's state.
	Drain func(p int, end Time)
	// Barrier merges the window's cross-partition sends; end is the
	// window's end. Serial.
	Barrier func(end Time)
}

// RunUntil drains every event at or before until. The last window ends at
// until+1, which keeps the kernel's inclusive deadline (Kernel.RunUntil).
// The worker pool has min(Workers, Parts)-1 goroutines plus the caller and
// lives for this call only; the workers claim partitions through an atomic
// counter.
func (w *Windows) RunUntil(until Time) {
	nw := min(max(w.Workers, 1), w.Parts)
	var next atomic.Int64
	end := Time(math.MinInt64) // the last drained window's end
	drain := func() {
		for {
			p := int(next.Add(1) - 1)
			if p >= w.Parts {
				return
			}
			w.Drain(p, end)
		}
	}

	var start, done chan struct{}
	if nw > 1 {
		start, done = make(chan struct{}), make(chan struct{})
		for range nw - 1 {
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
		t, found := Time(0), false
		for p := range w.Parts {
			if at, ok := w.NextAt(p); ok && (!found || at < t) {
				t, found = at, true
			}
		}
		if found && t < end {
			panic(fmt.Sprintf("sim: conservative window invariant violated: event at %d before the end of the window ending %d", t, end))
		}
		if !found || t > until {
			return
		}
		end = min(t+w.Width, until+1)

		next.Store(0)
		for range nw - 1 {
			start <- struct{}{}
		}
		drain()
		for range nw - 1 {
			<-done
		}
		w.Barrier(end)
	}
}
