// Command perfbench is the repository's benchmark. It runs one named
// workload against the layers' public Go APIs for a given time, checks
// every pass's output for correctness and prints each end-to-end metric
// by name with its unit; with -trace 1 it re-drives the same work with
// spans around every layer call and prints the per-layer breakdown
// instead. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/nexit"
)

// setupReps is how many extra set-ups a run times before its passes,
// so setup_s is a median even when only a few passes fit.
const setupReps = 9

type benchConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	isps     int
	workers  int
	stateDir string
	log      io.Writer // per-pass diagnostics
}

func (cfg benchConfig) genConfig() gen.Config {
	c := gen.DefaultConfig()
	c.NumISPs = cfg.isps
	return c
}

// expSeed is the seed the workloads receive; the experiments package
// reads seed 0 as 1, and every workload follows it.
func (cfg benchConfig) expSeed() int64 {
	if cfg.seed == 0 {
		return 1
	}
	return cfg.seed
}

type metric struct {
	name, unit string
	value      float64
}

// result is one invocation's outcome.
type result struct {
	attempted, failed int
	why               string // the first failure, if any
	metrics           []metric
}

func (res *result) judged(attempted, failed int, why string) {
	res.attempted += attempted
	res.failed += failed
	if res.why == "" {
		res.why = why
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg benchConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: distance, bandwidth or mesh")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 35, "measure whole passes for about this many seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.IntVar(&cfg.isps, "isps", gen.DefaultConfig().NumISPs, "ISPs in the generated dataset")
	fs.StringVar(&cfg.stateDir, "state-dir", filepath.Join(".bench_build", "mesh-state"), "scratch directory for the mesh's snapshot stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()
	cfg.log = stderr

	var res *result
	var err error
	switch cfg.workload {
	case "distance":
		res, err = runExperiment(cfg, distancePass, distanceTraced)
	case "bandwidth":
		res, err = runExperiment(cfg, bandwidthPass, bandwidthTraced)
	case "mesh":
		res, err = runMeshWorkload(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want distance, bandwidth or mesh)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return report(res, stdout, stderr)
}

// report prints every metric by name with its unit, then the JSON
// result line, and returns the exit code: non-zero when any operation
// failed its correctness check.
func report(res *result, stdout, stderr io.Writer) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-32s %16.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(stdout, "%-32s %16.6f frac (%d of %d failed)\n", "failed_frac",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if res.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: correctness check failed: %s\n", res.why)
		return 1
	}
	return 0
}

type (
	passFunc   func(ds *experiments.Dataset, cfg benchConfig, st *stream) error
	tracedFunc func(ds *experiments.Dataset, cfg benchConfig, t *tracer, st *stream) error
)

// runExperiment runs the distance or bandwidth workload: untraced,
// whole passes (set-up, then every pair or failure case of the dataset)
// until cfg.seconds have passed; traced, one untraced and one traced
// pass.
func runExperiment(cfg benchConfig, pass passFunc, traced tracedFunc) (*result, error) {
	res := &result{}
	gate := &recordGate{}
	if p, ok := pins[cfg.workload][cfg.expSeed()]; ok && cfg.isps == gen.DefaultConfig().NumISPs {
		gate.pinned = &p
	}
	onePass := func(t *tracer) (st *stream, setup, elapsed time.Duration, err error) {
		runtime.GC() // no pass pays for an earlier one's garbage
		start := time.Now()
		r := t.recorder()
		ds, err := loadDataset(cfg, r)
		r.flush()
		if err != nil {
			return nil, 0, 0, err
		}
		setup = time.Since(start)
		st = newStream()
		start = time.Now()
		if t != nil {
			err = traced(ds, cfg, t, st)
		} else {
			err = pass(ds, cfg, st)
		}
		elapsed = time.Since(start)
		fmt.Fprintf(cfg.log, "%s pass: %d records, %d pairs, %.3fs, sha256 %s\n",
			cfg.workload, len(st.recs), st.pairs, elapsed.Seconds(), st.digest())
		a, f, why := gate.judge(st)
		if err != nil {
			f, why = max(a, len(st.recs)), err.Error()
		}
		res.judged(a, f, why)
		return st, setup, elapsed, nil
	}

	if cfg.trace {
		_, _, plain, err := onePass(nil)
		if err != nil {
			return nil, err
		}
		t := newTracer()
		var tracedTime time.Duration
		shares, err := profiled(func() error {
			var err error
			_, _, tracedTime, err = onePass(t)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.metrics = layerMetrics(t, shares, tracedTime.Seconds()/plain.Seconds()-1)
		return res, nil
	}

	var setups []float64
	for range setupReps {
		runtime.GC()
		start := time.Now()
		if _, err := loadDataset(cfg, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	peak := startPeakMemory()
	defer peak.stop()
	// Rates are over the passes' total time, which averages the host's
	// second-to-second speed swings better than a median of few passes.
	var passes, pairs, cases int
	var measured time.Duration
	var peaks []float64
	for start := time.Now(); morePasses(start, passes, cfg.seconds); passes++ {
		peak.reset()
		st, setup, elapsed, err := onePass(nil)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak.peakMB())
		setups = append(setups, setup.Seconds())
		pairs += st.pairs
		cases += len(st.recs)
		measured += elapsed
	}
	m := measured.Seconds()
	res.metrics = endToEnd(median(setups), float64(pairs)/m, float64(cases)/m, float64(cases)/m, median(peaks))
	return res, nil
}

// runMeshWorkload runs the mesh workload: the serial reference once,
// untimed, then whole mesh passes until cfg.seconds have passed (or one
// untraced and one traced pass).
func runMeshWorkload(cfg benchConfig) (*result, error) {
	ref, err := meshReference(cfg)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{}
	onePass := func(epochs int, t *tracer) (*meshRun, error) {
		dir, err := os.MkdirTemp(cfg.stateDir, "pass-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		runtime.GC() // no pass pays for an earlier one's garbage
		run, err := runMesh(cfg, dir, epochs, t)
		if err != nil {
			return nil, err
		}
		if epochs > 0 {
			res.judged(judgeMesh(run, ref))
		}
		return run, nil
	}

	if cfg.trace {
		plain, err := onePass(meshEpochs, nil)
		if err != nil {
			return nil, err
		}
		t := newTracer()
		var run *meshRun
		shares, err := profiled(func() error {
			var err error
			run, err = onePass(meshEpochs, t)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := countMesh(t, run); err != nil {
			return nil, err
		}
		overhead := (run.setup+run.window).Seconds()/(plain.setup+plain.window).Seconds() - 1
		res.metrics = layerMetrics(t, shares, overhead)
		return res, nil
	}

	var setups []float64
	for range setupReps {
		run, err := onePass(0, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, run.setup.Seconds())
	}
	peak := startPeakMemory()
	defer peak.stop()
	var passes, pairs, cases int
	var sessions int64
	var window time.Duration
	var peaks []float64
	for start := time.Now(); morePasses(start, passes, cfg.seconds); passes++ {
		peak.reset()
		run, err := onePass(meshEpochs, nil)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak.peakMB())
		setups = append(setups, run.setup.Seconds())
		pairs += run.pairs
		for _, reps := range run.reports {
			cases += len(reps)
		}
		for _, st := range run.statuses {
			sessions += st.SessionsInitiated
		}
		window += run.window
	}
	w := window.Seconds()
	res.metrics = endToEnd(median(setups), float64(pairs)/w, float64(cases)/w, float64(sessions)/w, median(peaks))
	return res, nil
}

// morePasses reports whether a run measuring for seconds since start,
// with passes done so far, takes another whole pass: the first always,
// later ones when ending after it lands closer to the deadline than
// stopping now.
func morePasses(start time.Time, passes int, seconds float64) bool {
	if passes == 0 {
		return true
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(passes)/2 < seconds
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
func endToEnd(setup, pairs, cases, sessions, peakMB float64) []metric {
	return []metric{
		{"setup_s", "s", setup},
		{"pairs_per_s", "pairs/s", pairs},
		{"cases_per_s", "cases/s", cases},
		{"sessions_per_s", "sessions/s", sessions},
		{"peak_mem_mb", "MB", peakMB},
	}
}

// stopReasons are the negotiation engine's termination causes, one
// per-layer counter each.
var stopReasons = []nexit.StopReason{
	nexit.StopAllNegotiated, nexit.StopNoJointGain, nexit.StopSideCannotGain, nexit.StopCumulativeLoss,
}

// layerMetrics lists the per-layer metrics of a traced pass; every
// workload prints all of them, zero for layers it does not run.
func layerMetrics(t *tracer, shares map[string]float64, overhead float64) []metric {
	c := func(name string) float64 { return t.counts[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	gen, routing, traffic := t.get("gen"), t.get("routing"), t.get("traffic")
	nx, prefs, commit := t.get("nexit"), t.get("nexit.prefs"), t.get("nexit.commit")
	base, lp := t.get("baseline"), t.get("optimal")
	ms := []metric{
		{"gen.isps", "count", c("gen.isps")},
		{"gen.s", "s", gen.total.Seconds()},
		{"routing.tables", "count", c("routing.tables")},
		{"routing.warm_s", "s", routing.total.Seconds()},
		{"traffic.items", "count", c("traffic.items")},
		{"traffic.s", "s", traffic.total.Seconds()},
		{"runner.busy_frac", "frac", ratio(t.get("runner.pair").total.Seconds(), c("runner.capacity_s"))},
		{"runner.sink_wait_s", "s", c("runner.sink_wait_s")},
		{"nexit.negotiations", "count", c("nexit.negotiations")},
		{"nexit.s", "s", nx.self.Seconds()},
		{"nexit.rounds", "count", c("nexit.rounds")},
		{"nexit.items_agreed", "count", c("nexit.items_agreed")},
		{"nexit.items_reverted", "count", c("nexit.items_reverted")},
		{"nexit.agree_ratio", "frac", ratio(c("nexit.items_agreed"), c("nexit.items"))},
	}
	for _, r := range stopReasons {
		ms = append(ms, metric{"nexit.stop." + r.String(), "count", c("nexit.stop." + r.String())})
	}
	ms = append(ms,
		metric{"nexit.prefs_calls", "count", float64(prefs.calls)},
		metric{"nexit.prefs_s", "s", prefs.total.Seconds()},
		metric{"nexit.commit_calls", "count", float64(commit.calls)},
		metric{"nexit.commit_s", "s", commit.total.Seconds()},
		metric{"baseline.calls", "count", float64(base.calls)},
		metric{"baseline.s", "s", base.self.Seconds()},
		metric{"optimal.lp_solves", "count", float64(lp.calls)},
		metric{"optimal.lp_s", "s", lp.total.Seconds()},
		metric{"optimal.lp_vars", "count", c("optimal.lp_vars")},
	)
	for _, n := range []string{"frames", "bytes", "hello_s", "prefs_s", "propose_s", "commit_s"} {
		unit := "s"
		switch n {
		case "frames":
			unit = "count"
		case "bytes":
			unit = "B"
		}
		ms = append(ms, metric{"nexitwire." + n, unit, c("nexitwire." + n)})
	}
	for _, n := range []string{"sessions", "sessions_failed", "dial_retries", "resyncs", "rounds"} {
		ms = append(ms, metric{"agentd." + n, "count", c("agentd." + n)})
	}
	ms = append(ms,
		metric{"agentd.session_p50_s", "s", c("agentd.session_p50_s")},
		metric{"agentd.session_p99_s", "s", c("agentd.session_p99_s")},
		metric{"continuous.flows_observed", "count", c("continuous.flows_observed")},
		metric{"continuous.flows_negotiated", "count", c("continuous.flows_negotiated")},
		metric{"continuous.flows_moved", "count", c("continuous.flows_moved")},
		metric{"snapshot.saves", "count", c("snapshot.saves")},
		metric{"snapshot.bytes", "B", c("snapshot.bytes")},
	)
	for _, m := range cpuModules {
		ms = append(ms, metric{"cpu." + m, "frac", shares[m]})
	}
	return append(ms, metric{"trace.overhead_frac", "frac", overhead})
}

// profiled runs fn under the CPU profiler and returns each module's
// share of the samples.
func profiled(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return cpuShares(buf.Bytes())
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakMemory samples, every peakSampleEvery until stopped, the memory
// the Go runtime holds from the OS (mapped and not released) and keeps
// the peak since the last reset.
type peakMemory struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

const peakSampleEvery = 2 * time.Millisecond

func startPeakMemory() *peakMemory {
	p := &peakMemory{done: make(chan struct{})}
	p.reset()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(peakSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				p.sample()
			}
		}
	}()
	return p
}

// reset collects garbage, hands its memory back to the OS and restarts
// the peak from what remains, so no pass carries an earlier one's heap.
func (p *peakMemory) reset() {
	debug.FreeOSMemory()
	p.peak.Store(heldBytes())
}

func (p *peakMemory) sample() {
	v := heldBytes()
	for old := p.peak.Load(); v > old && !p.peak.CompareAndSwap(old, v); old = p.peak.Load() {
	}
}

// peakMB returns the peak since the last reset in MB (2^20 bytes).
func (p *peakMemory) peakMB() float64 {
	p.sample()
	return float64(p.peak.Load()) / (1 << 20)
}

func (p *peakMemory) stop() {
	close(p.done)
	p.wg.Wait()
}

func heldBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}
