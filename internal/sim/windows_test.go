package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// ring is a toy partitioned model: each partition owns a kernel, and every
// token that fires is logged and passed on to the next partition at least
// one window width later, through an outbox the barrier merges.
type ring struct {
	k    []*Kernel
	log  [][]string
	out  [][]hop // per source partition, this window's sends
	win  Windows
	hops int
}

type hop struct {
	at    Time
	to    int
	token int
}

func newRing(parts, workers, tokens int) *ring {
	const width = time.Millisecond
	r := &ring{
		k:   make([]*Kernel, parts),
		log: make([][]string, parts),
		out: make([][]hop, parts),
	}
	for p := range r.k {
		r.k[p] = New(int64(p) + 1)
	}
	r.win = Windows{
		Parts:   parts,
		Workers: workers,
		Width:   width,
		NextAt:  func(p int) (Time, bool) { return r.k[p].NextEventAt() },
		Drain:   func(p int, end Time) { r.k[p].RunUntil(end - 1) },
		Barrier: func(Time) {
			for p := range r.out {
				for _, h := range r.out[p] {
					r.schedule(h)
				}
				r.out[p] = r.out[p][:0]
			}
		},
	}
	for i := range tokens {
		r.schedule(hop{at: Time(i) * 3 * width / 2, to: i % parts, token: i})
	}
	return r
}

// schedule puts a token on its partition's kernel. When it fires, the
// partition logs it and sends it on with a delay of width plus a jitter
// drawn from its own kernel's stream.
func (r *ring) schedule(h hop) {
	k := r.k[h.to]
	k.At(h.at, func() {
		p := h.to
		r.log[p] = append(r.log[p], fmt.Sprintf("%d@%d", h.token, k.Now()))
		next := hop{
			at:    k.Now() + r.win.Width + Time(k.Rand().Int63n(int64(2*r.win.Width))),
			to:    (p + 1) % len(r.k),
			token: h.token,
		}
		r.out[p] = append(r.out[p], next)
	})
}

func (r *ring) result() string {
	var b strings.Builder
	for p, l := range r.log {
		fmt.Fprintf(&b, "%d:%s\n", p, strings.Join(l, ","))
	}
	return b.String()
}

// TestWindowsWorkerCountInvariance: a ring of partitions passing tokens
// across the barrier gives identical results at every worker count,
// including more workers than partitions.
func TestWindowsWorkerCountInvariance(t *testing.T) {
	run := func(workers int) string {
		r := newRing(5, workers, 7)
		r.win.RunUntil(200 * time.Millisecond)
		r.win.RunUntil(400 * time.Millisecond) // resumes where it stopped
		return r.result()
	}
	want := run(1)
	if strings.Count(want, "@") < 100 {
		t.Fatalf("ring barely ran:\n%s", want)
	}
	for _, workers := range []int{2, 3, 8} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d:\n%s\nwant (workers=1):\n%s", workers, got, want)
		}
	}
}

// TestWindowsInclusiveDeadline: an event at exactly until runs, and one at
// until+1 stays queued for the next call.
func TestWindowsInclusiveDeadline(t *testing.T) {
	const until = 50 * time.Millisecond
	k := New(1)
	var ran []Time
	for _, at := range []Time{until - 1, until, until + 1} {
		k.At(at, func() { ran = append(ran, k.Now()) })
	}
	w := Windows{
		Parts:   1,
		Workers: 1,
		Width:   time.Millisecond,
		NextAt:  func(int) (Time, bool) { return k.NextEventAt() },
		Drain:   func(_ int, end Time) { k.RunUntil(end - 1) },
		Barrier: func(Time) {},
	}
	w.RunUntil(until)
	if len(ran) != 2 || ran[1] != until {
		t.Fatalf("ran %v, want events at %v and %v", ran, until-1, until)
	}
	if at, ok := k.NextEventAt(); !ok || at != until+1 {
		t.Fatalf("next pending event %v (%v), want %v", at, ok, until+1)
	}
}

// TestWindowsInvariantPanics is the negative control for the window check:
// a barrier that schedules an event before the end of the window it follows
// must panic, at every worker count.
func TestWindowsInvariantPanics(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r := newRing(2, workers, 1)
		r.win.Barrier = func(end Time) { r.k[1].At(end-1, func() {}) }
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "conservative window invariant violated") {
					t.Fatalf("workers=%d: recovered %q, want the invariant panic", workers, msg)
				}
			}()
			r.win.RunUntil(time.Second)
		}()
	}
}
