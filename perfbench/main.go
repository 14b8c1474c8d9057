// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the serving system through its public surfaces
// (the spatialserver HTTP API, the cluster coordinator, the durable store),
// checks every answer against its own reference index, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload analysis-http --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// records spans around every call into a layer and reports the per-layer
// set. perfbench/run.sh builds the binaries from source and runs this.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// endToEnd and perLayer are the metrics the final JSON line carries. They
// must equal the end_to_end and per_layer names in BENCHMARK.json (the
// self-test checks this); each is reported by every workload. Metrics that
// only some workloads have, and knn_p50_us (steady in process, not over
// HTTP), are printed on the metric lines above the JSON.
var (
	endToEnd = []string{"setup_s", "range_p50_us", "peak_rss_mb"}
	perLayer = []string{"serve.query_us", "serve.fanout", "rtree.node_visits_per_query", "rtree.results_per_elem_test", "trace.overhead_us"}
)

// runBudget bounds one run, set-up and checks included; the watchdog kills
// child processes and exits non-zero past it.
const runBudget = 170 * time.Second

type config struct {
	workload     string
	seed         int64
	holdoutSeed  int64
	seconds      float64
	trace        bool
	tiny         bool
	injectWrong  bool
	serverBin    string
	outDir       string
	latencyLimit time.Duration
}

func (c config) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"base,omitempty"`
}

// report is what a workload measured. attempted/failed count valid
// operations; the invalid-input probe keeps its own tally and is folded
// into error_rate, never dropped.
type report struct {
	e2eM, layerM   map[string]metricVal
	mu             sync.Mutex
	attempted      int64
	failed         int64
	wrong          int64
	probeAttempted int64
	probeFailed    int64
	firstWrong     string
	injectWrong    bool
	injectedOnce   bool
}

func newReport(c config) *report {
	return &report{e2eM: map[string]metricVal{}, layerM: map[string]metricVal{}, injectWrong: c.injectWrong}
}

func (r *report) e2e(name string, v float64, unit, base string) {
	r.e2eM[name] = metricVal{Value: v, Unit: unit, Base: base}
}

func (r *report) layer(name string, v float64, unit, base string) {
	r.layerM[name] = metricVal{Value: v, Unit: unit, Base: base}
}

// verdict records the outcome of one valid operation: err is nil for a
// correct answer; failed marks an answer that was shed, timed out, degraded
// or missing (it counts in failed without being a wrong answer).
func (r *report) verdict(err error, failed bool) { r.verdicts(err, failed, 1) }

// verdicts records the same outcome for n valid operations.
func (r *report) verdicts(err error, failed bool, n int64) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	if err != nil {
		r.failed += n
		if !failed {
			r.wrong += n
			if r.firstWrong == "" {
				r.firstWrong = err.Error()
			}
		}
	}
}

// corrupt implements the self-test's injected wrong answer: the first
// non-empty answer handed to it loses its last item before the check.
func (r *report) corrupt(a answer) (answer, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.injectWrong || r.injectedOnce || a.n == 0 {
		return a, false
	}
	r.injectedOnce = true
	a.n--
	if len(a.ids) > 0 {
		a.ids = a.ids[:len(a.ids)-1]
	}
	return a, true
}

// check records the verdict on one kept answer to a valid request; fail
// is why the system gave no usable answer (nil when it answered).
func (r *report) check(g *grid, q query, a answer, fail error) {
	if fail != nil {
		r.verdict(fail, true)
		return
	}
	a, _ = r.corrupt(a)
	r.verdict(g.checkAnswer(q, a), false)
}

// checkKept records the verdicts on one kept answer and on the later
// answers that matched it (the self-test corrupts only the kept one).
func (r *report) checkKept(g *grid, q query, s kept) {
	err := g.checkAnswer(q, s.a)
	if c, ok := r.corrupt(s.a); ok {
		r.verdict(g.checkAnswer(q, c), false)
		s.n--
	}
	r.verdicts(err, false, s.n)
}

// failure is why a reply is unusable — an error, or a degraded (partial)
// answer — or nil.
func failure(err error, degraded bool) error {
	if err == nil && degraded {
		return errors.New("degraded reply")
	}
	return err
}

func (r *report) probe(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probeAttempted++
	if !ok {
		r.probeFailed++
	}
}

func countBase(n int, what string) string { return fmt.Sprintf("n=%d %s", n, what) }

type workloadFunc func(ctx context.Context, c config, r *report) error

var workloads = map[string]workloadFunc{
	"analysis-http":    runAnalysisHTTP,
	"timestep-cluster": runTimestepCluster,
	"ingest-durable":   runIngestDurable,
}

// cleanups are run by the watchdog before a forced exit (child processes).
var (
	cleanupMu sync.Mutex
	cleanups  = map[int]func(){}
	cleanupN  int
)

func addCleanup(f func()) (remove func()) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	cleanupN++
	id := cleanupN
	cleanups[id] = f
	return func() {
		cleanupMu.Lock()
		delete(cleanups, id)
		cleanupMu.Unlock()
	}
}

func runCleanups() {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	for id, f := range cleanups {
		f()
		delete(cleanups, id)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		runCleanups()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		c         config
		traceFlag int
		seed      int64
		limitUS   int
	)
	fs.StringVar(&c.workload, "workload", "", "analysis-http | timestep-cluster | ingest-durable")
	fs.Int64Var(&seed, "seed", -1, "workload seed (-1 uses --default-seed)")
	defaultSeed := fs.Int64("default-seed", 1, "seed used when --seed is not given")
	fs.Int64Var(&c.holdoutSeed, "holdout-seed", 0, "seed reserved for confirming claims (recorded in the stamp)")
	fs.Float64Var(&c.seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.BoolVar(&c.tiny, "tiny", false, "tiny scale (self-test)")
	fs.BoolVar(&c.injectWrong, "inject-wrong", false, "corrupt one answer before the check (self-test of the oracle)")
	fs.StringVar(&c.serverBin, "server-bin", "", "spatialserver binary (analysis-http)")
	fs.StringVar(&c.outDir, "out-dir", ".bench_build/perfbench/out", "directory for data dirs, spans and result files")
	fs.IntVar(&limitUS, "latency-limit-us", 20000, "p99 limit of the analysis-http rate ladder (µs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	c.trace = traceFlag == 1
	c.seed = seed
	if seed < 0 {
		c.seed = *defaultSeed
	}
	c.latencyLimit = time.Duration(limitUS) * time.Microsecond
	wf, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", c.workload)
	}
	if c.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	watchdog := time.AfterFunc(runBudget+5*time.Second, func() {
		runCleanups()
		fmt.Fprintln(os.Stderr, "perfbench: run budget exceeded")
		os.Exit(3)
	})
	defer watchdog.Stop()

	r := newReport(c)
	if err := wf(ctx, c, r); err != nil {
		return fmt.Errorf("%s: %w", c.workload, err)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%s: run budget exceeded", c.workload)
	}
	return emit(stdout, c, r)
}

// emit prints the stamp, every metric line and the final JSON object, and
// writes the full result (every metric, with bases) to the out dir.
func emit(stdout io.Writer, c config, r *report) error {
	st := stamp(c)
	fmt.Fprintf(stdout, "stamp %s\n", st.line())
	if !st.Comparable {
		fmt.Fprintln(os.Stderr, "perfbench: GOMAXPROCS is 1; this run is not comparable with multi-core runs")
	}
	all := r.errorRate()
	total := r.attempted + r.probeAttempted
	fmt.Fprintf(stdout, "metric error_rate %.6g ratio  (%d failed of %d attempted; valid: %d failed, %d wrong answers, of %d; invalid-input probe: %d failed of %d)\n",
		all, r.failed+r.probeFailed, total, r.failed, r.wrong, r.attempted, r.probeFailed, r.probeAttempted)
	printSet := func(kind string, m map[string]metricVal) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := m[n]
			fmt.Fprintf(stdout, "%s %s %.6g %s  (%s)\n", kind, n, v.Value, v.Unit, v.Base)
		}
	}
	want := endToEnd
	src := r.e2eM
	if c.trace {
		printSet("layer", r.layerM)
		want, src = perLayer, r.layerM
	} else {
		printSet("metric", r.e2eM)
	}
	if r.firstWrong != "" {
		fmt.Fprintf(stdout, "wrong first wrong answer: %s\n", r.firstWrong)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricVal{}}
	for _, n := range want {
		v, ok := src[n]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = metricVal{Value: v.Value, Unit: v.Unit}
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	full := map[string]any{
		"stamp": st, "workload": c.workload, "seed": c.seed, "trace": c.trace,
		"attempted": r.attempted, "failed": r.failed, "wrong": r.wrong,
		"probe_attempted": r.probeAttempted, "probe_failed": r.probeFailed, "error_rate": all,
		"end_to_end": r.e2eM, "per_layer": r.layerM,
	}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", c.workload, c.seed, btoi(c.trace))
	if err := os.WriteFile(filepath.Join(c.outDir, name), b, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// errorRate is failed over attempted, the invalid-input probe included.
func (r *report) errorRate() float64 {
	total := r.attempted + r.probeAttempted
	if total == 0 {
		return 0
	}
	return float64(r.failed+r.probeFailed) / float64(total)
}

type stampInfo struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	GoVersion   string `json:"go"`
	Commit      string `json:"commit"`
	Source      string `json:"source"`
	Seed        int64  `json:"seed"`
	HoldoutSeed int64  `json:"holdout_seed"`
	Comparable  bool   `json:"comparable"`
}

func (s stampInfo) line() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d go=%s commit=%s source=%s seed=%d holdout_seed=%d comparable=%t",
		s.GOMAXPROCS, s.NumCPU, s.GoVersion, s.Commit, s.Source, s.Seed, s.HoldoutSeed, s.Comparable)
}

// stamp identifies the run: processor counts, toolchain, and the code
// measured. run.sh passes the commit (when the tree is a git checkout) and a
// digest of the Go sources (always) through the environment.
func stamp(c config) stampInfo {
	env := func(k string) string {
		if v := os.Getenv(k); v != "" {
			return v
		}
		return "unknown"
	}
	return stampInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: env("PERFBENCH_COMMIT"), Source: env("PERFBENCH_SOURCE"),
		Seed: c.seed, HoldoutSeed: c.holdoutSeed, Comparable: runtime.GOMAXPROCS(0) > 1,
	}
}

// neurons generates the paper's dense, branch-clustered segment data.
func neurons(n int, seed int64) *datagen.Dataset {
	return datagen.GenerateNeurons(datagen.DefaultNeuronConfig(max(1, n/1000), min(n, 1000), seed))
}

func itemsOf(d *datagen.Dataset) []index.Item {
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items
}

// query is one read of a workload mix: a range box or a kNN point.
type query struct {
	knn   bool
	box   geom.AABB
	point geom.Vec3
}

const knnK = 8

// queryPool draws n data-centred reads, range and kNN at 3:1. Range boxes
// are cubes around random elements, each sized on the reference to hold
// about targetHits items, so the work per range query does not depend on
// how dense the seed's data happens to be around its centre.
func queryPool(d *datagen.Dataset, g *grid, n int, targetHits float64, rng *rand.Rand) []query {
	base := calibrateSide(d, g, targetHits, rng)
	cube := func(c geom.Vec3, side float64) geom.AABB {
		return geom.AABBFromCenter(c, geom.V(side/2, side/2, side/2))
	}
	pool := make([]query, n)
	for i := range pool {
		e := d.Elements[rng.Intn(d.Len())]
		if i%4 == 3 {
			jitter := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(base / 4)
			pool[i] = query{knn: true, point: e.Position.Add(jitter)}
			continue
		}
		side := base
		for iter := 0; iter < 4; iter++ {
			hits := float64(max(len(g.rangeIDs(cube(e.Position, side))), 1))
			side *= min(max(math.Cbrt(targetHits/hits), 0.5), 2)
		}
		pool[i] = query{box: cube(e.Position, side)}
	}
	return pool
}

func calibrateSide(d *datagen.Dataset, g *grid, target float64, rng *rand.Rand) float64 {
	centres := make([]geom.Vec3, 200)
	for i := range centres {
		centres[i] = d.Elements[rng.Intn(d.Len())].Position
	}
	side := math.Cbrt(d.Universe.Volume() * target / float64(d.Len()))
	for iter := 0; iter < 6; iter++ {
		var hits float64
		for _, c := range centres {
			hits += float64(len(g.rangeIDs(geom.AABBFromCenter(c, geom.V(side/2, side/2, side/2)))))
		}
		avg := max(hits/float64(len(centres)), 1)
		side *= math.Cbrt(target / avg)
	}
	return side
}

// rssSampler tracks the peak resident set of a process over the measured
// window (set-up and the checks after the window are excluded), sampling
// /proc/<pid>/statm every 20ms.
type rssSampler struct {
	pid  int
	stop chan struct{}
	done chan struct{}
	peak int64
	err  error
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", s.pid))
	if err != nil {
		s.err = err
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		s.err = errors.New("short /proc statm")
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		s.err = err
		return
	}
	s.peak = max(s.peak, pages*int64(os.Getpagesize()))
}

// finish stops sampling and reports the peak in MB.
func (s *rssSampler) finish(r *report, what string) error {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return fmt.Errorf("rss: %w", s.err)
	}
	r.e2e("peak_rss_mb", float64(s.peak)/(1<<20), "MB", what+": peak RSS over the measured window, sampled every 20ms")
	return nil
}

// repeatSetup runs set-up n times and returns the last instance and the
// median set-up time; every earlier instance is torn down before the next.
func repeatSetup[T any](n int, setup func() (T, time.Duration, error), teardown func(T)) (T, float64, error) {
	var v T
	times := make([]float64, n)
	for i := range times {
		if i > 0 {
			teardown(v)
		}
		var d time.Duration
		var err error
		if v, d, err = setup(); err != nil {
			return v, 0, err
		}
		times[i] = d.Seconds()
	}
	return v, median(times), nil
}

// cpuSample is the process's cumulative GC and total CPU time, as the
// runtime accounts it (total is GOMAXPROCS x wall time).
type cpuSample struct{ gc, total float64 }

func gcCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// since is the GC share of CPU time between o and c.
func (c cpuSample) since(o cpuSample) float64 {
	return (c.gc - o.gc) / max(c.total-o.total, 1e-9)
}
