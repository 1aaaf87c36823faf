// Command bench is physdep's end-to-end benchmark. It drives the
// evaluation daemon in-process — serve.New(...).Handler() called through
// httptest, no sockets — on inputs generated from a seed, in a closed
// loop. It prints the end-to-end metrics BENCHMARK.json names, or with
// -trace 1 the per-layer metrics of a traced run and a decomposed
// replay. README.md explains the workloads and metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload serve-hot -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload evaluate-miss -trace 1 -spans spans.json
//	bash bench/run.sh -all -out r.json
//	bash bench/run.sh -compare a.json b.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The line before it holds the run's
// details and environment.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"physdep/internal/par"
)

// metricDef is a metric the benchmark emits, with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; perLayer those of a
// traced one. BENCHMARK.json lists the same names and units.
//
// The two times are CPU time, which leaves out the time the host runs
// something else on this machine's vCPUs (steal). Wall-clock latency and
// throughput are in the detail line: on a shared host that stole up to
// half of both CPUs, the median latency of the same code doubled between
// runs while its CPU time per op moved by a fifth.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"heap_live_mb", "MB"},
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range timedLayers {
		defs = append(defs, metricDef{l + "_ms", "ms"})
	}
	for _, l := range replayLayers {
		defs = append(defs, metricDef{l + "_share", "frac"})
	}
	return append(defs,
		metricDef{"obs.snapshot_ms", "ms"},
		metricDef{"obs.retained_spans", "count"},
		metricDef{"serve.hit_ratio", "frac"},
		metricDef{"serve.coalesced_ratio", "frac"},
		metricDef{"serve.store_build_ratio", "frac"},
		metricDef{"serve.allocs_per_hit", "count"},
		metricDef{"serve.overhead_share", "frac"},
		metricDef{"cabling.cables", "count"},
		metricDef{"deploy.tasks", "count"},
		metricDef{"twin.entities", "count"},
		metricDef{"twin.relations", "count"},
		metricDef{"graph.sampled_frac", "frac"},
		metricDef{"par.speedup", "x"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}()

// workload is one named traffic mix. open generates its inputs from the
// seed, builds the system under test and warms it: the set-up setup_s
// times. heapOps is the op count after which heap_live_mb is read; each
// is reached in the first quarter of a run on the machine the bounds
// were fixed on.
type workload struct {
	name    string
	heapOps int
	open    func(cfg config) (session, error)
}

const (
	// clients is the closed loop's client count, one per CPU of the
	// machine the bounds were fixed on.
	clients = 2
	// setups is how many times a run sets up; setup_s is their median. A
	// set-up takes well under a second.
	setups = 7
)

var workloads = []workload{
	{"evaluate-miss", 300, func(cfg config) (session, error) {
		return openMiss(evaluateMissGen(cfg.seed), 40)
	}},
	{"stats-miss", 200, func(cfg config) (session, error) {
		return openMiss(statsMissGen(cfg.seed), 40)
	}},
	{"serve-hot", 100_000, openServeHot},
}

// openMiss sets up a workload whose every op is a new key: ops [0, 16)
// are checked against a direct computation, and a traced run replays up
// to replayN misses. The warm-up sends eight keys of its own.
func openMiss(gen generator, replayN int) (session, error) {
	s := newDaemonSession(gen, true, 16, replayN)
	ops := make([]request, 8)
	for k := range ops {
		ops[k] = gen(warmBase + k)
	}
	return s, s.warm(ops)
}

// openServeHot fills the result cache with every key, coldest first, so
// the hottest keys are the ones still cached.
func openServeHot(cfg config) (session, error) {
	g := newHotGen(cfg.seed)
	s := newDaemonSession(g.gen, false, 0, 100)
	ops := make([]request, hotKeys)
	for k := range ops {
		ops[k] = g.reqs[hotKeys-1-k]
	}
	return s, s.warm(ops)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int // set-ups per run (0: the setups constant)
	maxOps   int // stop after this many ops; 0 means only the clock stops the run
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the environment a result was measured in.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"par_workers"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
	Date       string `json:"date"`
}

func stamp() env {
	e := env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Workers: par.Workers(),
		GoVersion: runtime.Version(), Revision: "unknown", Date: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

// detail is what a run reports beside its metrics.
type detail struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Env      env            `json:"env"`
	Ops      map[string]int `json:"ops"` // ops attempted, by kind
	Samples  int            `json:"latency_samples"`
	// Wall-clock measures: ops completed per second of the loop, and
	// latencies. Tail latencies are reported only with at least ten
	// samples beyond them.
	Throughput float64  `json:"throughput_ops"`
	P50        float64  `json:"latency_p50_ms"`
	P90        *float64 `json:"latency_p90_ms,omitempty"`
	P99        *float64 `json:"latency_p99_ms,omitempty"`
	// Each set-up's CPU time, which setup_s is the median of, and its
	// wall time.
	SetupS    []float64 `json:"setup_s_runs"`
	SetupWall []float64 `json:"setup_wall_s_runs"`
	HeapOps   int       `json:"heap_live_after_ops,omitempty"`
	Failures  []string  `json:"failures,omitempty"`
}

// runWorkload sets the workload up several times, runs the closed loop
// on the last set-up, checks the outputs and computes the metrics. A
// traced run also returns its spans.
func runWorkload(cfg config) (result, detail, []span, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, detail{}, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	det := detail{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Env: stamp()}
	nSetups := cfg.setups
	if nSetups == 0 {
		nSetups = setups
	}
	var s session
	for k := 0; k < nSetups; k++ {
		s = nil
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0, cpu0 := time.Now(), cpuTime()
		var err error
		if s, err = w.open(cfg); err != nil {
			return result{}, det, nil, fmt.Errorf("set-up: %w", err)
		}
		det.SetupS = append(det.SetupS, (cpuTime() - cpu0).Seconds())
		det.SetupWall = append(det.SetupWall, time.Since(t0).Seconds())
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	s.start(cfg.trace)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var st loopStats
	heap := 0.0
	if !cfg.trace {
		// The live heap is read after a fixed number of ops, with the clock
		// stopped, so it measures what serving that much work leaves behind
		// rather than how many ops this machine managed in the run.
		end := w.heapOps
		if cfg.maxOps > 0 {
			end = min(end, cfg.maxOps)
		}
		st = closedLoop(s, clients, 0, dur, end, nil)
		heap = heapLiveMB()
		det.HeapOps = st.attempted
	}
	st.add(closedLoop(s, clients, st.attempted, dur-st.wall, cfg.maxOps, tr))
	if st.attempted == 0 {
		return result{}, det, nil, errors.New("no operation ran")
	}
	failures := st.errs
	failed := st.failed
	for _, err := range s.verify() {
		failed++
		failures = append(failures, err.Error())
	}
	failed = min(failed, st.attempted)

	sort.Float64s(st.lat)
	det.Ops, det.Samples, det.Failures = st.kinds, len(st.lat), failures
	n := float64(st.attempted)
	det.Throughput = n / st.wall.Seconds()
	det.P50 = median(st.lat)
	if v, ok := percentile(st.lat, 0.90); ok {
		det.P90 = &v
	}
	if v, ok := percentile(st.lat, 0.99); ok {
		det.P99 = &v
	}

	m := map[string]float64{}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		m["runtime.gc_cpu_frac"] = ratio(st.gcSec, st.totalSec)
		// Per-client throughput is the inverse of mean latency, so this is
		// the throughput lost on traced ops.
		if len(st.traced) > 0 && len(st.plain) > 0 {
			m["trace.overhead_frac"] = mean(st.traced)/mean(st.plain) - 1
		} else {
			m["trace.overhead_frac"] = 0 // a run too short to have both
		}
		if err := s.layers(tr, m, st.attempted); err != nil {
			return result{}, det, tr.spans, fmt.Errorf("per-layer metrics: %w", err)
		}
	} else {
		m["setup_s"] = median(det.SetupS)
		m["cpu_ms_per_op"] = float64(st.cpu.Nanoseconds()) / 1e6 / n
		m["allocs_per_op"] = float64(st.mallocs) / n
		m["heap_live_mb"] = heap
	}

	res := result{Correct: failed == 0, Attempted: det.Samples, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return res, det, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(m) != len(defs) {
		return res, det, nil, fmt.Errorf("measured %d metrics, %d are defined", len(m), len(defs))
	}
	var spans []span
	if tr != nil {
		spans = tr.spans
	}
	return res, det, spans, nil
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	spansOut := fs.String("spans", "", "with -trace 1, write the spans to this JSON file")
	all := fs.Bool("all", false, "run every workload, each in a fresh process")
	runs := fs.Int("runs", 1, "with -all, runs per workload")
	out := fs.String("out", "", "with -all, write the results to this JSON file")
	cmp := fs.Bool("compare", false, "compare two -all result files: -compare base.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *all {
		return runAll(spec, *seed, *seconds, *trace, *runs, *out, stdout, stderr)
	}

	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if cfg.trace {
		cfg.setups = 1 // a traced run reports no set-up time
	}
	res, det, spans, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	summarize(stderr, res, det)
	d, err := json.Marshal(map[string]detail{"detail": det})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	r, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", d, r)
	if !res.Correct {
		return 1
	}
	return 0
}

// summarize prints a run's metrics for a reader.
func summarize(w io.Writer, res result, det detail) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v gomaxprocs=%d: %d ops %v, %d failed\n",
		det.Workload, det.Seed, det.Seconds, det.Trace, det.Env.GOMAXPROCS, res.Attempted, det.Ops, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-28s %14.6g 1/s (wall clock, not gated)\n", "throughput_ops", det.Throughput)
	fmt.Fprintf(w, "  %-28s %14.6g ms (wall clock, not gated; %d samples)\n", "latency_p50_ms", det.P50, det.Samples)
	if det.P90 != nil {
		fmt.Fprintf(w, "  %-28s %14.6g ms (%d samples)\n", "latency_p90_ms", *det.P90, det.Samples)
	}
	if det.P99 != nil {
		fmt.Fprintf(w, "  %-28s %14.6g ms (%d samples)\n", "latency_p99_ms", *det.P99, det.Samples)
	}
	for _, f := range det.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// spansFile is the -spans output: the spans in recording order, each
// with its self time.
type spansFile struct {
	Spans  []span  `json:"spans"`
	SelfNS []int64 `json:"self_ns"`
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spansFile{Spans: spans, SelfNS: selfTimes(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runRecord is one run inside an -all results file.
type runRecord struct {
	Result result `json:"result"`
	Detail detail `json:"detail"`
}

// allResults is the -all output: every run of every workload.
type allResults struct {
	Env     env                    `json:"env"`
	Seed    uint64                 `json:"seed"`
	Seconds float64                `json:"seconds"`
	Runs    map[string][]runRecord `json:"runs"`
}

// runAll runs every workload, runs times each, each run in a fresh
// process: serve.New turns observability on for the whole process and
// its span registry only grows, so a workload run after a daemon
// workload in the same process would be measured with both.
func runAll(spec benchSpec, seed uint64, seconds float64, trace, runs int,
	out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := allResults{Env: stamp(), Seed: seed, Seconds: seconds, Runs: map[string][]runRecord{}}
	code := 0
	for r := 0; r < runs; r++ {
		for _, w := range spec.Workloads {
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stderr = stderr
			b, runErr := cmd.Output()
			rec, err := parseRun(b)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v (exit: %v)\n", w.Name, err, runErr)
				code = 1
				continue
			}
			if runErr != nil || !rec.Result.Correct {
				code = 1
			}
			all.Runs[w.Name] = append(all.Runs[w.Name], rec)
		}
	}
	printAll(stdout, spec, all)
	if out != "" {
		b, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// parseRun reads a run's last two output lines: the detail and the
// result.
func parseRun(out []byte) (runRecord, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rec runRecord
	if len(lines) < 2 {
		return rec, errors.New("no result line")
	}
	var d map[string]detail
	if err := json.Unmarshal(lines[len(lines)-2], &d); err != nil {
		return rec, fmt.Errorf("detail line: %w", err)
	}
	rec.Detail = d["detail"]
	if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	return rec, nil
}

// printAll prints each workload's median of every metric, with units,
// sample counts and failures.
func printAll(w io.Writer, spec benchSpec, all allResults) {
	for _, wl := range spec.Workloads {
		recs := all.Runs[wl.Name]
		if len(recs) == 0 {
			continue
		}
		attempted, failed, samples := 0, 0, 0
		for _, r := range recs {
			attempted += r.Result.Attempted
			failed += r.Result.Failed
			samples += r.Detail.Samples
		}
		fmt.Fprintf(w, "%s: %d runs, %d ops attempted, %d failed (ops_failed_frac %.4g)\n",
			wl.Name, len(recs), attempted, failed, ratio(float64(failed), float64(attempted)))
		for _, name := range metricNames(recs) {
			vals, unit := values(recs, name)
			fmt.Fprintf(w, "  %-28s %14.6g %-6s (median of %d runs; %d latency samples)\n",
				name, median(vals), unit, len(vals), samples)
		}
	}
}

func metricNames(recs []runRecord) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range recs {
		for n := range r.Result.Metrics {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

func values(recs []runRecord, name string) ([]float64, string) {
	var vals []float64
	unit := ""
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			vals = append(vals, m.Value)
			unit = m.Unit
		}
	}
	return vals, unit
}
