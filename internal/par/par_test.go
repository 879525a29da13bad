package par

import (
	"math/rand"
	"runtime"
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/replicate"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// buildAndRun runs the canonical determinism scenario: 200 hosts, a crash
// wave at epoch 3, eight epochs total.
func buildAndRun(t *testing.T, workers, strips int) (*Engine, string, []wire.NodeID) {
	t.Helper()
	e := Build(Config{
		Seed: 42, Nodes: 200, FieldSide: 700, LossProb: 0.05,
		Strips: strips, Workers: workers, CollectTrace: true,
	})
	e.RunEpochs(3)
	victims := e.CrashRandomAt(e.Now()+sim.Time(1e9), 5)
	e.RunEpochs(5)
	return e, e.TraceHash(), victims
}

// TestWorkerCountInvariance is the engine's core contract: the trace hash,
// the victim picks, and the message tallies are bit-identical at every
// worker count.
func TestWorkerCountInvariance(t *testing.T) {
	e1, h1, v1 := buildAndRun(t, 1, 0)
	for _, workers := range []int{2, 4, 7} {
		e, h, v := buildAndRun(t, workers, 0)
		if h != h1 {
			t.Fatalf("workers=%d trace hash %s != workers=1 hash %s", workers, h, h1)
		}
		if len(v) != len(v1) {
			t.Fatalf("workers=%d victim count %d != %d", workers, len(v), len(v1))
		}
		for i := range v {
			if v[i] != v1[i] {
				t.Fatalf("workers=%d victims %v != %v", workers, v, v1)
			}
		}
		if e.Sends() != e1.Sends() || e.Deliveries() != e1.Deliveries() {
			t.Fatalf("workers=%d tallies (%d,%d) != (%d,%d)",
				workers, e.Sends(), e.Deliveries(), e1.Sends(), e1.Deliveries())
		}
	}
}

// TestCrashesAreDetected checks the stack actually runs: after five epochs,
// most operational hosts know about a wave of crashes.
func TestCrashesAreDetected(t *testing.T) {
	e, _, victims := buildAndRun(t, 4, 0)
	if len(victims) != 5 {
		t.Fatalf("expected 5 victims, got %v", victims)
	}
	total, reached := 0, 0
	for _, v := range victims {
		aware, operational := e.Completeness(v)
		if operational == 0 {
			t.Fatalf("no operational hosts")
		}
		total++
		if aware > operational/2 {
			reached++
		}
	}
	if reached < 3 {
		t.Fatalf("only %d/%d victims detected by a majority", reached, total)
	}
}

// TestStripCountChangesAreExplicit documents that Strips (unlike Workers) is
// part of the configuration: different partitions are different timelines.
func TestStripCountChangesAreExplicit(t *testing.T) {
	_, h1, _ := buildAndRun(t, 2, 2)
	_, h4, _ := buildAndRun(t, 2, 4)
	if h1 == h4 {
		t.Log("note: strip counts 2 and 4 happened to agree; not a failure")
	}
}

// TestSteadyEpochAllocations pins the pooled strip transport: once formation
// is over, an epoch's deliveries reuse pooled transmission buffers and
// delivery records, so the heap allocations of a whole epoch, every protocol
// layer included, stay far below one per delivery.
func TestSteadyEpochAllocations(t *testing.T) {
	e := Build(Config{Seed: 42, Nodes: 200, FieldSide: 700, LossProb: 0.05})
	e.RunEpochs(6)
	d0 := e.Deliveries()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.RunEpochs(1)
	runtime.ReadMemStats(&after)
	deliveries := e.Deliveries() - d0
	mallocs := after.Mallocs - before.Mallocs
	if deliveries == 0 {
		t.Fatal("no deliveries in the measured epoch")
	}
	perDelivery := float64(mallocs) / float64(deliveries)
	t.Logf("%d mallocs over %d deliveries (%.3f per delivery)", mallocs, deliveries, perDelivery)
	if perDelivery > 0.25 {
		t.Fatalf("%.3f mallocs per delivery in a steady epoch, want <= 0.25", perDelivery)
	}
}

// TestTransmissionBuffersReturnAtBarrier checks the cross-strip buffer
// lifetime across many strips and workers: whenever RunEpochs returns, the
// barrier has dropped every reference a cross-strip delivery held, and
// every idle buffer sits exactly once on its owner's free list with no
// reference left.
func TestTransmissionBuffersReturnAtBarrier(t *testing.T) {
	e := Build(Config{Seed: 7, Nodes: 240, FieldSide: 800, LossProb: 0.1, Strips: 8, Workers: 4})
	check := func(epoch int) {
		t.Helper()
		seen := map[*txBuf]bool{}
		for s := range e.strips {
			st := &e.strips[s]
			if len(st.release) != 0 {
				t.Fatalf("epoch %d: strip %d holds %d unreleased buffers", epoch, s, len(st.release))
			}
			for _, tb := range st.txFree {
				if tb.refs != 0 {
					t.Fatalf("epoch %d: idle buffer on strip %d has refs=%d", epoch, s, tb.refs)
				}
				if tb.owner != int32(s) {
					t.Fatalf("epoch %d: strip %d holds a buffer owned by strip %d", epoch, s, tb.owner)
				}
				if seen[tb] {
					t.Fatalf("epoch %d: buffer freed twice on strip %d", epoch, s)
				}
				seen[tb] = true
			}
		}
	}
	for epoch := 1; epoch <= 6; epoch++ {
		if epoch == 3 {
			e.CrashRandomAt(e.Now()+sim.Time(1e9), 4)
		}
		e.RunEpochs(1)
		check(epoch)
	}
	if e.Sends() == 0 || e.Deliveries() == 0 {
		t.Fatal("no traffic")
	}
}

// runReplica builds one replica of a 120-host crash wave at the given seed
// and worker count and returns its trace hash.
func runReplica(seed int64, workers int) string {
	e := Build(Config{
		Seed: seed, Nodes: 120, FieldSide: 500, LossProb: 0.1,
		Workers: workers, CollectTrace: true,
	})
	timing := cluster.DefaultTiming()
	e.CrashRandomAt(timing.EpochStart(2)+timing.Interval/2, 3)
	e.RunEpochs(6)
	return e.TraceHash()
}

// TestParallelNestedInReplicas nests the engine's worker pool inside the
// replication engine's worker pool — the two layers of parallelism the
// repository composes (fdsim -trials N -workers W with parallel replicas).
// Each replica runs its own window coordinator's pool while three replicate
// workers run replicas concurrently; `make race` runs this under the race
// detector. Results must be bit-identical to the fully serial nesting.
func TestParallelNestedInReplicas(t *testing.T) {
	const seed, trials = 7, 4
	body := func(workers int) func(int, *rand.Rand) string {
		return func(i int, _ *rand.Rand) string {
			return runReplica(replicate.Seed(seed, i), workers)
		}
	}
	serial, err := replicate.RunOpts(replicate.Opts{Workers: 1}, trials, seed, body(1))
	if err != nil {
		t.Fatal(err)
	}
	nested, err := replicate.RunOpts(replicate.Opts{Workers: 3}, trials, seed, body(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != nested[i] {
			t.Fatalf("replica %d: nested hash %s != serial hash %s", i, nested[i], serial[i])
		}
	}
}
