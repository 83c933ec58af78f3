// Command perfbench is the repository's benchmark. It runs one workload
// against the real client and server code in one process, over
// loopback TCP, from one load generator with at most two client
// connections; checks every output; and prints every metric by name
// with its unit. The last line of standard output is the machine-read
// result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; a traced run
// (-trace 1) records spans around the calls it makes into each module
// and reports the per-layer metrics, the self-time table and the
// tracing overhead. Each run also writes its full result (provenance,
// sample counts, quartiles, checks) to .bench_out/<run>/result.json,
// and a traced run its span dump and self-time table next to it.
//
//	bash perfbench/run.sh --workload lenet-solo --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --summarize   # per-metric median and quartiles over the runs in .bench_out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// env is what a workload gets from the command line.
type env struct {
	seed    int64
	seconds int
	rec     *Recorder // nil in an untraced run
	// setupReps is how many times the workload builds its deployment;
	// setup_s is the median, and the last build serves the timed phase.
	setupReps int
}

func (e *env) traced() bool { return e.rec != nil }

func (e *env) duration() time.Duration { return time.Duration(e.seconds) * time.Second }

// outcome is what a workload measured.
type outcome struct {
	setups []float64 // seconds per set-up

	// One entry per completed timed request.
	lat       []float64 // ms, call to return
	compute   []float64 // ms, lat minus time blocked in Recv
	latTraced []bool

	elapsed            time.Duration // timed phase, first request to last reply
	okReqs             int           // requests whose output checked out
	upBytes, downBytes int64         // timed requests only
	framesUp           int
	framesDown         int

	// Session opens behind key_upload_bytes_per_session; openPhase says
	// whether they happened in the timed phase or, for workloads that
	// keep one session, during set-up.
	opens     []openSample
	openPhase string
	// openMs is the open phase behind session_open_p50_ms, and peakRSS
	// the VmHWM read before it (measureOpens).
	openMs  []float64
	peakRSS float64

	attempted, failed int
	failures          []string // first few failure messages
	checks            []check
	layer             map[string]Value
}

type openSample struct {
	ms     float64
	cached bool
	upload int64 // key-bundle bytes sent
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) setLayer(name string, v Value) {
	if o.layer == nil {
		o.layer = map[string]Value{}
	}
	o.layer[name] = v
}

// workload is one benchmark input mix; see each run function's comment
// for why it exists.
type workload struct {
	run       func(*env) (*outcome, error)
	setupReps int
}

// The single-session workloads set up in about 1.5 s, the fleet in 3 s;
// each run's set-ups take about 8 s either way.
var workloads = map[string]workload{
	"lenet-solo":  {runLenetSolo, 5},
	"lenet-fleet": {runLenetFleet, 3},
	"knn-ckks":    {runKNN, 5},
}

// memoryLimit is the Go runtime's soft memory limit for the process.
const memoryLimit = 1600 << 20

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: lenet-solo, lenet-fleet or knn-ckks")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 25, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "repository checkout (artifacts go to <root>/.bench_out)")
	summarize := fs.Bool("summarize", false, "print median and quartiles of every metric over the results in <root>/.bench_out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize {
		if err := summarizeRuns(filepath.Join(*root, ".bench_out"), stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds ≥ 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// The deployment's soft memory limit. lenet-fleet holds about 830 MB
	// live (four client key sets, two cached and two active server
	// sessions); without a limit its heap reaches twice that between
	// collections (2.0 GB peak RSS), with 1200 MiB the collector runs
	// so often that it slows session opens by half.
	debug.SetMemoryLimit(memoryLimit)
	e := &env{seed: *seed, seconds: *seconds, setupReps: wl.setupReps}
	if *trace == 1 {
		e.rec = NewRecorder()
	}
	prov := collectProvenance(*root, *name, e)

	out, err := wl.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := assemble(e, out, prov)

	dir := filepath.Join(*root, ".bench_out", fmt.Sprintf("%s-seed%d-trace%d-%s", *name, *seed, *trace, time.Now().UTC().Format("20060102T150405.000")))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if e.traced() {
		if err := writeTraceArtifacts(dir, res.spans, res.SelfTime); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	printReport(stdout, res, dir)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the full record of one run, written to result.json.
type result struct {
	Provenance provenance       `json:"provenance"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	ErrorRate  float64          `json:"error_rate"`
	Failures   []string         `json:"failures,omitempty"`
	Checks     []check          `json:"checks"`
	Metrics    map[string]Value `json:"metrics"`
	LatencyMS  []float64        `json:"latency_ms"`
	SelfTime   []SelfRow        `json:"self_time,omitempty"`
	TracedReqs int              `json:"traced_requests,omitempty"`

	spans []Span
}

// assemble turns what the workload measured into the reported metrics.
func assemble(e *env, o *outcome, prov provenance) *result {
	res := &result{Provenance: prov, Attempted: o.attempted, Failed: o.failed, Failures: o.failures,
		Checks: o.checks, Metrics: map[string]Value{}, LatencyMS: o.lat}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
	}
	res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	for _, c := range o.checks {
		res.Correct = res.Correct && c.OK
	}

	if !e.traced() {
		endToEndMetrics(res.Metrics, o)
		finite(res.Metrics)
		return res
	}
	res.spans = e.rec.Spans()
	var traced, untraced []float64
	for i, l := range o.lat {
		if o.latTraced[i] {
			traced = append(traced, l)
		} else {
			untraced = append(untraced, l)
		}
	}
	res.TracedReqs = len(traced)
	res.SelfTime = SelfTable(res.spans, len(traced))
	o.setLayer("trace.overhead_p50_ms", Value{Value: Median(traced) - Median(untraced), Unit: "ms", N: len(o.lat),
		Note: fmt.Sprintf("median of %d traced minus median of %d untraced requests, interleaved in one run", len(traced), len(untraced))})
	for _, d := range perLayer {
		v, ok := o.layer[d.name]
		if !ok {
			v = Value{Note: "not applicable: this workload does not run the layer"}
		}
		v.Unit = d.unit
		res.Metrics[d.name] = v
	}
	finite(res.Metrics)
	return res
}

// finite reports a metric without samples (a median of nothing) as 0,
// so the result stays valid JSON; its n of 0 says why.
func finite(m map[string]Value) {
	for n, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			v.Note = strings.TrimSpace(v.Note + " (no samples)")
			m[n] = v
		}
	}
}

func endToEndMetrics(m map[string]Value, o *outcome) {
	m["setup_s"] = sampleValue(o.setups, "s", "median over the run's set-ups")
	m["latency_p50_ms"] = sampleValue(o.lat, "ms", "timed requests")
	if t, ok := TailPercentile(o.lat); ok {
		m["latency_tail_ms"] = Value{Value: t.Value, Unit: "ms", N: t.N,
			Note: fmt.Sprintf("p%.1f, %d samples beyond", t.Percentile, t.Beyond)}
	} else {
		m["latency_tail_ms"] = Value{Value: Median(o.lat), Unit: "ms", N: t.N,
			Note: fmt.Sprintf("only %d samples: no percentile has %d beyond it; median reported", t.N, MinBeyond)}
	}
	secs := o.elapsed.Seconds()
	m["throughput_rps"] = Value{Value: float64(o.okReqs) / secs, Unit: "req/s", N: o.okReqs,
		Note: fmt.Sprintf("over %.3f s", secs)}
	m["client_compute_ms_per_req"] = sampleValue(o.compute, "ms", "median per request")
	n := len(o.lat)
	m["up_bytes_per_req"] = Value{Value: perReq(float64(o.upBytes), n), Unit: "B", N: n}
	m["down_bytes_per_req"] = Value{Value: perReq(float64(o.downBytes), n), Unit: "B", N: n}
	var upload int64
	for _, s := range o.opens {
		upload += s.upload
	}
	m["session_open_p50_ms"] = sampleValue(o.openMs, "ms", "open phase: key-uploading opens one at a time after the timed phase")
	m["key_upload_bytes_per_session"] = Value{Value: perReq(float64(upload), len(o.opens)), Unit: "B", N: len(o.opens),
		Note: "sessions opened during " + o.openPhase}
	if o.peakRSS == 0 {
		o.peakRSS = peakRSSMB() // no open phase ran
	}
	m["peak_rss_mb"] = Value{Value: o.peakRSS, Unit: "MB", N: 1, Note: "VmHWM before the open phase"}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	// Without procfs fall back to what the Go runtime obtained.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

func printReport(w io.Writer, res *result, dir string) {
	p := res.Provenance
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d vector_kernels=%v\n",
		p.Workload, p.Seed, p.Seconds, p.Trace, p.Commit, p.GoVersion, p.CPU, p.NProc, p.GOMAXPROCS, p.VectorKernels)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%-5d %s\n", n, v.Value, v.Unit, v.N, v.Note)
	}
	fmt.Fprintf(w, "  %-34s %14.4f %-6s attempted=%d failed=%d\n", "error_rate", res.ErrorRate, "ratio", res.Attempted, res.Failed)
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-32s %s: %s\n", c.Name, status, c.Detail)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	if len(res.SelfTime) > 0 {
		fmt.Fprintf(w, "self time by layer and by span; self_ms/req over the %d traced requests (set-up, opens and replays excluded):\n", res.TracedReqs)
		WriteTable(w, LayerTable(res.SelfTime))
		WriteTable(w, res.SelfTime)
	}
	fmt.Fprintf(w, "artifacts: %s\n", dir)

	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]short{}}
	for n, v := range res.Metrics {
		line.Metrics[n] = short{v.Value, v.Unit}
	}
	data, _ := json.Marshal(line) // plain structs of numbers and strings always encode
	fmt.Fprintln(w, string(data))
}

// freeMemory returns a torn-down set-up's memory before the next one,
// so set-ups do not stack in the peak RSS.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
