// Command perfbench is the repository's benchmark: one command that runs a
// named workload on the serial engine (scenario.Build), the strip-parallel
// engine (internal/par) or the compact engine (internal/shard), checks the
// simulated outputs, and prints every metric by name with its unit.
//
//	go run . --workload crashwave --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line carries the end-to-end metrics, measured
// untraced. With --trace 1 it carries the per-layer metrics of a traced run
// whose spans are opened around calls through each layer's public seams,
// from this package only. The line before the last is a JSON report with
// the run's conditions, the detection-quality metrics, per-field detail and
// every check. BENCHMARK.json at the repository root describes the metrics;
// plan.json in this directory records why each workload was chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type conditions struct {
	NumCPU       int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	Commit       string   `json:"commit"`
	Seed         int64    `json:"seed"`
	Seconds      int      `json:"seconds"`
	Trace        bool     `json:"trace"`
	Workload     workload `json:"workload"`
	FieldSeeds   []int64  `json:"field_seeds"`
	EngineConfig string   `json:"engine_config"`
}

type report struct {
	Conditions conditions        `json:"conditions"`
	Quality    map[string]metric `json:"quality,omitempty"`
	// StormFields are the fields stopped by a report storm (see
	// stormSliceTxPerHost and e2eMetrics). They are left out of the quality
	// metrics.
	StormFields []int        `json:"storm_fields"`
	ExtraSetupS []float64    `json:"extra_setup_s,omitempty"`
	NotMeasured []string     `json:"not_measured,omitempty"`
	Checks      []string     `json:"checks"`
	Failures    []string     `json:"failures,omitempty"`
	Fields      [][]fieldRun `json:"fields"`
	Layers      *layerReport `json:"layers,omitempty"`
}

// outcome is what one invocation produced, before printing.
type outcome struct {
	res result
	rep report
}

func main() {
	name := flag.String("workload", "", "workload name (steady, crashwave, par-crashwave, shard-crashwave)")
	seed := flag.Int64("seed", 1, "workload seed; every field's seed is derived from it")
	seconds := flag.Int("seconds", 20, "how long the untraced run keeps re-running fields")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.Parse()
	wl, err := findWorkload(*name)
	if err == nil && (*traceFlag < 0 || *traceFlag > 1) {
		err = errors.New("--trace must be 0 or 1")
	}
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out := run(wl, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	out.rep.Conditions.Seconds = *seconds
	printOutcome(os.Stdout, out)
	if !out.res.Correct {
		os.Exit(1)
	}
}

func run(wl workload, seed int64, seconds time.Duration, traced bool) outcome {
	var out outcome
	seeds := fieldSeeds(seed, wl.Fields)
	out.rep.Conditions = conditions{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       envOr("PERFBENCH_COMMIT", "unknown"),
		Seed:         seed,
		Trace:        traced,
		Workload:     wl,
		FieldSeeds:   seeds,
		EngineConfig: engineConfig(wl, seeds[0]),
	}
	var ms *metricSet
	if traced {
		ms = runTraced(wl, seeds, &out)
	} else {
		ms = runE2E(wl, seeds, seconds, &out)
	}
	out.rep.NotMeasured = append(out.rep.NotMeasured, ms.fill()...)
	out.res.Metrics = ms.m
	out.res.Failed = len(out.rep.Failures)
	out.res.Correct = out.res.Failed == 0
	return out
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// engineConfig renders the Config the engine receives for the first field.
func engineConfig(wl workload, seed int64) string {
	switch wl.Engine {
	case enginePar:
		return fmt.Sprintf("par.Config%+v", parConfig(wl, seed, wl.Workers))
	case engineShard:
		c := shardConfig(wl, seed, wl.Workers)
		return fmt.Sprintf("shard.Config{Seed:%d N:%d Side:%v Shards:%d Workers:%d Epochs:%d Timing:%+v Radio:%+v Crashes:%+v}",
			c.Seed, c.N, c.Side, c.Shards, c.Workers, c.Epochs, c.Timing, c.Radio, c.Crashes)
	default:
		return fmt.Sprintf("scenario.Config%+v", serialConfig(wl, seed))
	}
}

// check records a named check and, when err is non-nil, its failure.
func (o *outcome) check(name string, err error) {
	o.rep.Checks = append(o.rep.Checks, name)
	if err != nil {
		o.rep.Failures = append(o.rep.Failures, fmt.Sprintf("%s: %v", name, err))
	}
}

// fieldChecks are the checks every run of a field must pass on its own.
// A field a storm stopped before its crash has no wave to check.
func (o *outcome) fieldChecks(wl workload, i int, r fieldRun) {
	crashed := r.FP.CrashEpoch >= 0 && (r.FP.StormAt == 0 || r.FP.StormAt > int64(epochMid(r.FP.CrashEpoch)))
	if wl.Crashes == 0 || !crashed {
		return
	}
	if wl.Engine == engineSerial {
		var err error
		if r.FP.Unadmitted != 0 {
			err = fmt.Errorf("%d hosts unadmitted at the crash (epoch %d)", r.FP.Unadmitted, r.FP.CrashEpoch)
		}
		o.check(fmt.Sprintf("field %d: cluster.unadmitted_at_crash == 0", i), err)
	}
	var err error
	if want := wl.Nodes - wl.Crashes; r.FP.Operational != want || len(r.FP.Aware) != wl.Crashes {
		err = fmt.Errorf("%d operational hosts and %d victims, want %d and %d",
			r.FP.Operational, len(r.FP.Aware), want, wl.Crashes)
	}
	o.check(fmt.Sprintf("field %d: every victim crashed", i), err)
}

// minSetups is how many engine constructions setup_s is the median of;
// builds beyond the field runs' own are timed and discarded.
const minSetups = 15

// runE2E runs every field once, checks on par and shard that one worker
// reproduces field 0, then re-runs the fields that did not storm (all of
// them if every one did), cheapest first, until the time is up; at least
// one field runs twice. Every re-run must reproduce
// its field's first fingerprint exactly.
func runE2E(wl workload, seeds []int64, seconds time.Duration, out *outcome) *metricSet {
	start := time.Now()
	byField := make([][]fieldRun, len(seeds))
	for i, s := range seeds {
		r := runField(wl, s, runMode{})
		out.fieldChecks(wl, i, r)
		byField[i] = []fieldRun{r}
	}
	builds := 0
	if wl.Engine != engineSerial {
		first := byField[0][0]
		o := runField(wl, seeds[0], runMode{workers: 1})
		out.check(fmt.Sprintf("field 0: 1 worker reproduces the %d-worker fingerprint", first.Workers),
			first.FP.diff(o.FP))
		builds++
	}
	// Re-runs serve the host-side figures, which leave out stormed fields.
	var order []int
	for i, runs := range byField {
		if runs[0].FP.StormAt == 0 {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		for i := range byField {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return byField[order[a]][0].WallS < byField[order[b]][0].WallS })
	for n := 0; n == 0 || time.Since(start) < seconds; n++ {
		i := order[n%len(order)]
		r := runField(wl, seeds[i], runMode{})
		out.check(fmt.Sprintf("field %d: re-run %d reproduces the fingerprint", i, len(byField[i])),
			byField[i][0].FP.diff(r.FP))
		byField[i] = append(byField[i], r)
	}
	var fps []fingerprint
	for _, runs := range byField {
		if runs[0].FP.StormAt == 0 {
			fps = append(fps, runs[0].FP)
		}
		builds += len(runs)
	}
	out.res.Attempted = builds
	var extraSetup []float64
	for i := 0; builds+len(extraSetup) < minSetups; i++ {
		extraSetup = append(extraSetup, setupOnly(wl, seeds[i%len(seeds)]))
	}
	out.rep.ExtraSetupS = extraSetup
	q, missing := qualityMetrics(wl, fps)
	out.rep.Quality = q.m
	for _, name := range missing {
		out.rep.NotMeasured = append(out.rep.NotMeasured, "quality."+name)
	}
	out.rep.Fields = byField
	out.rep.StormFields = stormFields(byField)
	return e2eMetrics(wl, byField, out.rep.StormFields, extraSetup)
}

// tracedFields bounds how many of a workload's fields the traced run
// covers: each is run two or three times, the traced run of a serial field
// costs about 1.4 times the untraced one.
const tracedFields = 2

// runTraced runs each traced field untraced and traced (par and shard: also
// traced at one worker) and checks that all runs of a field agree.
func runTraced(wl workload, seeds []int64, out *outcome) *metricSet {
	var plain, traced, one []fieldRun
	for i, s := range seeds[:min(tracedFields, len(seeds))] {
		p := runField(wl, s, runMode{})
		t := runField(wl, s, runMode{traced: true})
		out.fieldChecks(wl, i, p)
		out.check(fmt.Sprintf("field %d: traced run reproduces the untraced fingerprint", i), p.FP.diff(t.FP))
		plain, traced = append(plain, p), append(traced, t)
		out.rep.Fields = append(out.rep.Fields, []fieldRun{p, t})
		if wl.Engine != engineSerial {
			o := runField(wl, s, runMode{traced: true, workers: 1})
			out.check(fmt.Sprintf("field %d: 1 worker reproduces the %d-worker fingerprint", i, t.Workers), t.FP.diff(o.FP))
			one = append(one, o)
			out.rep.Fields[i] = append(out.rep.Fields[i], o)
		}
	}
	out.res.Attempted = len(plain) + len(traced) + len(one)
	out.rep.StormFields = stormFields(out.rep.Fields)
	var ms *metricSet
	var rep layerReport
	switch wl.Engine {
	case engineSerial:
		ms, rep = serialLayers(wl, plain, traced)
	case enginePar:
		ms, rep = parLayers(plain, traced, one)
	default:
		ms, rep = shardLayers(plain, traced, one)
	}
	out.rep.Layers = &rep
	return ms
}

func printOutcome(w *os.File, out outcome) {
	for _, d := range endToEnd {
		if m, ok := out.res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "e2e %-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, d := range quality {
		if m, ok := out.rep.Quality[d.Name]; ok {
			fmt.Fprintf(w, "quality %-24s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, d := range perLayer {
		if m, ok := out.res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "layer %-30s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, f := range out.rep.Failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	rep, err := json.Marshal(map[string]report{"report": out.rep})
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(rep))
	last, err := json.Marshal(out.res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(last))
}
