// Command e2ebench is latticesim's end-to-end benchmark. One process runs
// one named workload through the public packages (sweep, trace, service,
// worker), checks the outputs, and prints every end-to-end metric with
// its unit; with --trace 1 it instead prints the per-layer metrics,
// measured with spans the benchmark opens around its calls into each
// layer. The last line of standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Lines before it, each starting with '#', record the host, the command
// and seed of the run, and (traced) which end-to-end metric each
// per-layer metric should move. Run it from the repository root through
// e2ebench/run.sh, which builds it into .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hardDeadline bounds one run: every context the benchmark hands the
// program derives from it, and a watchdog ends the process a little
// after it, so a hang is reported as a failed run instead of a stuck
// benchmark.
const hardDeadline = 170 * time.Second

// busyThreads is the most threads a workload keeps busy: every Monte
// Carlo pool in the benchmark is sized to it and GOMAXPROCS is capped
// at it, so runs on hosts with more cores stay comparable.
const busyThreads = 2

// workload is one named set of inputs the benchmark can run.
type workload struct {
	name string
	why  string
	// run executes the timed workload and returns its raw outcome.
	run func(e *env) (outcome, error)
}

var workloads = []workload{
	{"merge-d7", "the paper's basic experiment, one decode-bound merge point; builds fall into setup_s so decoder changes show alone", runMerge},
	{"factory8-d5", "build-heavy short-shot trace program from a cold cache; the only workload where build and trace scheduling dominate", runFactory},
	{"service-mixed", "HTTP API, queue and store: cache-miss jobs that write beside cache-hit jobs that only read", runService},
	{"fleet-campaign", "coordinator plus two worker nodes: the only path through leases, heartbeats, batch split and aggregation", runFleet},
}

// env is everything a workload needs from the run.
type env struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	root    string // module root: the directory of latticesim's go.mod
	scratch string // per-run directory under .bench_build, removed at exit
	tr      *tracer
	ck      *checker
	sz      sizes
}

// outcome is what a workload's timed phase measured.
type outcome struct {
	setup []time.Duration // one entry per set-up repetition
	lat   []float64       // per-request latency, ms
	shots int64           // Monte Carlo shots decoded in the timed phase
	wall  time.Duration   // wall time of the timed phase
}

// e2eMetric is one end-to-end metric of BENCHMARK.json.
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"shots_per_s", "shots/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p75_ms", "ms", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.2},
}

// metrics computes the end-to-end metrics from an outcome.
func (o outcome) metrics() (map[string]float64, error) {
	p50, err := percentile(o.lat, 0.50)
	if err != nil {
		return nil, err
	}
	p75, err := percentile(o.lat, 0.75)
	if err != nil {
		return nil, err
	}
	if o.shots <= 0 || o.wall <= 0 || len(o.setup) == 0 {
		return nil, errors.New("empty outcome: no shots, wall or set-up recorded")
	}
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	return map[string]float64{
		"setup_s":     median(setup),
		"shots_per_s": float64(o.shots) / o.wall.Seconds(),
		"p50_ms":      p50,
		"p75_ms":      p75,
		"max_rss_mb":  maxRSSMB(),
	}, nil
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuStolen returns the host's cumulative steal and total CPU ticks from
// /proc/stat (0, 0 where unavailable). Time the hypervisor gave to other
// guests slows every metric of a run without any change to the program,
// so each run reports its share.
func cpuStolen() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user … steal; guest time is already in user
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// checker counts attempted operations and output checks, and the ones
// that failed. attempted = operations + checks; fail_frac is
// failed/attempted.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

// op records one operation; a non-nil err fails it.
func (c *checker) op(what string, err error) bool {
	return c.check(err == nil, "%s: %v", what, err)
}

// check records one output check.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (c *checker) counts() (attempted, failed int, msgs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed, append([]string(nil), c.msgs...)
}

// metricVal is one entry of the result's metrics object.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: merge-d7, factory8-d5, service-mixed, fleet-campaign")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 25, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	flag.Parse()
	code := run(os.Stdout, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	os.Exit(code)
}

// run executes one benchmark run and returns the process exit code:
// 0 for a correct run, 1 for failed checks, 2 for a run that could not
// start.
func run(stdout io.Writer, name string, seed uint64, seconds time.Duration, traced bool) int {
	start := time.Now()
	steal0, total0 := cpuStolen()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", name)
		return 2
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	if runtime.NumCPU() >= busyThreads {
		runtime.GOMAXPROCS(busyThreads)
	}
	runID := fmt.Sprintf("%s-s%d-%d-%d", name, seed, start.Unix(), os.Getpid())
	scratch := filepath.Join(root, ".bench_build", "tmp", runID)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	var cleanOnce sync.Once
	cleanup := func() { cleanOnce.Do(func() { os.RemoveAll(scratch) }) }
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), hardDeadline)
	defer cancel()
	watchdog := time.AfterFunc(hardDeadline+5*time.Second, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: %s did not finish within %v; giving up\n", name, hardDeadline)
		cleanup()
		os.Exit(3)
	})
	defer watchdog.Stop()

	e := &env{ctx: ctx, seed: seed, seconds: seconds, root: root, scratch: scratch, ck: &checker{}, sz: fullSizes}
	printInfo(stdout, "host", hostInfo())
	printInfo(stdout, "run", map[string]any{
		"run_id": runID, "workload": name, "why": wl.why, "seed": seed,
		"seconds": seconds.Seconds(), "trace": traced,
		"command": []string{"bash", "e2ebench/run.sh", "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds.Seconds()), "--trace", map[bool]string{false: "0", true: "1"}[traced]},
	})

	var metrics map[string]metricVal
	if traced {
		e.tr = newTracer(runID)
		metrics = runTraced(stdout, e, wl)
		if err := writeSpans(e.tr, root); err != nil {
			e.ck.op("write spans", err)
		}
	} else {
		metrics = runUntraced(stdout, e, wl)
	}
	for k, v := range metrics {
		if !e.ck.check(!math.IsNaN(v.Value) && !math.IsInf(v.Value, 0), "metric %s = %v", k, v.Value) {
			delete(metrics, k)
		}
	}
	att, failed, msgs := e.ck.counts()
	for _, m := range msgs {
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: %s\n", m)
	}
	res := result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: metrics}
	steal1, total1 := cpuStolen()
	printInfo(stdout, "done", map[string]any{
		"wall_s": time.Since(start).Seconds(), "cpu_s": cpuSeconds(),
		"host_steal_frac": float64(steal1-steal0) / float64(max(total1-total0, 1)),
		"fail_frac":       float64(failed) / float64(max(att, 1)),
	})
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// runUntraced runs the workload with tracing off and returns its
// end-to-end metrics.
func runUntraced(stdout io.Writer, e *env, wl *workload) map[string]metricVal {
	out, err := wl.run(e)
	if !e.ck.op(wl.name, err) {
		return nil
	}
	m, err := out.metrics()
	if !e.ck.op("metrics", err) {
		return nil
	}
	printInfo(stdout, "samples", map[string]any{"requests": len(out.lat), "setups": len(out.setup), "shots": out.shots, "timed_s": out.wall.Seconds()})
	vals := map[string]metricVal{}
	for _, d := range e2eMetrics {
		vals[d.name] = metricVal{m[d.name], d.unit}
	}
	return vals
}

// runTraced runs a shorter traced pass of the workload, reporting its
// end-to-end figures beside the untraced run's (the difference is the
// tracing overhead), then every layer probe, and returns the per-layer
// metrics.
func runTraced(stdout io.Writer, e *env, wl *workload) map[string]metricVal {
	full := e.seconds
	e.seconds = full / 3
	pass := e.tr.start("bench.traced_pass", nil)
	out, err := wl.run(e)
	pass.end()
	e.seconds = full
	if e.ck.op(wl.name+" traced pass", err) {
		m, err := out.metrics()
		if e.ck.op("traced pass metrics", err) {
			printInfo(stdout, "traced_pass", map[string]any{"workload": wl.name, "requests": len(out.lat), "timed_s": out.wall.Seconds(), "metrics": m})
		}
	}
	got := map[string]float64{}
	for _, p := range probes {
		sp := e.tr.start("bench.probe."+p.workload, nil)
		m, err := p.run(e)
		sp.end()
		if !e.ck.op("probe "+p.workload, err) {
			continue
		}
		for k, v := range m {
			got[k] = v
		}
	}
	vals := map[string]metricVal{}
	for _, d := range layerMetrics {
		v, ok := got[d.name]
		if !ok {
			continue
		}
		vals[d.name] = metricVal{v, d.unit}
		printInfo(stdout, "layer", map[string]any{"metric": d.name, "value": v, "unit": d.unit, "moves": d.moves})
	}
	return vals
}

// printInfo writes one '#'-prefixed JSON info line.
func printInfo(w io.Writer, kind string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", fmt.Sprint(v)))
	}
	fmt.Fprintf(w, "# %s %s\n", kind, b)
}

// hostInfo records the machine a result came from, so numbers from
// different hosts are never compared.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// moduleRoot walks up from the working directory to the directory whose
// go.mod declares module latticesim; bundled inputs such as the trace
// files are resolved against it, not against the working directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && modulePath(string(b)) == "latticesim" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no latticesim go.mod in the working directory or above it")
		}
		dir = parent
	}
}

// modulePath returns the module path a go.mod declares.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// writeSpans writes the run's spans to .bench_build/spans/<run>.ndjson.
func writeSpans(t *tracer, root string) error {
	dir := filepath.Join(root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.runID+".ndjson"))
	if err != nil {
		return err
	}
	if err := t.writeNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeSetup runs one set-up repetition after a forced GC, so that no
// repetition pays for the garbage of the one before, and returns its
// duration.
func timeSetup(setup func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := setup()
	return time.Since(t0), err
}

// sampled returns the indices of n results that are checked against a
// direct run: the first and about sampleChecks more, evenly spaced.
func sampled(n, sampleChecks int) []int {
	step := max(1, n/max(sampleChecks, 1))
	var idx []int
	for i := 0; i < n; i += step {
		idx = append(idx, i)
	}
	return idx
}

// splitmix derives the i-th input seed of a run from the workload seed.
func splitmix(seed uint64, i int) uint64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(i+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// timedLoop runs op until the timed phase is over: it starts another
// request only while that request should still end within e.seconds,
// and always makes at least minReqs. It returns the phase's wall time.
func timedLoop(e *env, minReqs int, op func(i int) error) (time.Duration, error) {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		el := time.Since(start)
		if i >= minReqs && el+last > e.seconds {
			return el, nil
		}
		if err := e.ctx.Err(); err != nil {
			return el, fmt.Errorf("after %d requests: %w", i, err)
		}
		t0 := time.Now()
		if err := op(i); err != nil {
			return time.Since(start), err
		}
		last = time.Since(t0)
	}
}
