// Command nexitsim reproduces the paper's evaluation (§5): it runs the
// default, negotiated, and globally optimal routing over the synthetic
// dataset and prints each figure's CDF series as an aligned text table.
//
// Usage:
//
//	nexitsim [-fig all|4|5|6|7|8|9|10|11|extras] [-max-pairs N]
//	         [-max-failures N] [-seed N] [-points N] [-workers N]
//	         [-dataset FILE] [-isps N] [-inventory]
//	         [-stream] [-out FILE]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// Each printed block corresponds to one figure panel of the paper; the
// x-grid matches the paper's axes. EXPERIMENTS.md records a full run.
// Figure mode folds the experiments' records into a plot.Fold that
// keeps every sample and renders it: internal/plot owns the layout,
// and cmd/nexitplot renders the same sections from a stream.
//
// With -stream (or -out), nexitsim switches to the streaming pipeline
// (DESIGN.md §8): the same experiments run through the same loop, but
// their per-pair / per-failure-case results are emitted incrementally
// as NDJSON — one {"experiment","index","data"} object per line, in
// deterministic pair order, followed by one summary line per experiment
// computed with the constant-memory accumulators in internal/stats.
// Nothing is buffered, so arbitrarily large datasets run in O(workers)
// memory. One figure-mode-only exception: the §5 preference-range
// ablation (part of -fig extras) is a derived sweep of full experiment
// re-runs, not a per-pair stream, and has no streaming form.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/plot"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fatal(err)
	}
}

// run parses the command line and writes figure tables (or, with
// -stream, NDJSON to stdout) to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("nexitsim", flag.ExitOnError)
	var (
		fig         = fs.String("fig", "all", "figure to reproduce: all, 4, 5, 6, 7, 8, 9, 10, 11, extras")
		maxPairs    = fs.Int("max-pairs", 0, "limit ISP pairs (0 = all)")
		maxFailures = fs.Int("max-failures", 0, "limit bandwidth failure cases (0 = all)")
		seed        = fs.Int64("seed", 1, "experiment seed")
		points      = fs.Int("points", 16, "points per CDF series (at least 2)")
		workers     = fs.Int("workers", runtime.GOMAXPROCS(0),
			"goroutines evaluating ISP pairs (results are identical for any value)")
		dataset   = fs.String("dataset", "", "load .topo dataset instead of generating")
		isps      = fs.Int("isps", 0, "generate a dataset of N ISPs instead of the default 65")
		inventory = fs.Bool("inventory", false, "print dataset inventory and exit")
		stream    = fs.Bool("stream", false, "emit per-pair results incrementally as NDJSON instead of figure tables")
		out       = fs.String("out", "", "write streaming NDJSON to FILE (implies -stream; default stdout)")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile to FILE")
		memprof   = fs.String("memprofile", "", "write a heap profile to FILE at exit")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with usage
	if err := plot.CheckFlags(*fig, *points); err != nil {
		return err
	}

	// Profiles cover every normal return, including the early -stream
	// and -inventory ones.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memprof != "" {
		defer func() {
			if perr := writeHeapProfile(*memprof); err == nil {
				err = perr
			}
		}()
	}

	ds, err := loadDataset(*dataset, *isps, *workers)
	if err != nil {
		return err
	}
	if *inventory {
		_, err := io.WriteString(stdout, ds.Inventory())
		return err
	}
	// Shard the cold start (per-ISP Dijkstra) across the worker pool
	// before any experiment asks for a routing table. Only for
	// effectively-full runs: a biting -max-pairs subset touches few
	// ISPs, and warming all of them would make cold start O(dataset)
	// again — the lazy TableCache computes exactly the tables the
	// subset needs. A cap at or above every eligible pair count selects
	// everything, so warm then too.
	if n := *maxPairs; n <= 0 || (n >= len(ds.DistancePairs()) && n >= len(ds.BandwidthPairs())) {
		ds.Warm(*workers)
	}

	opt := experiments.Options{MaxPairs: *maxPairs, Seed: *seed, Workers: *workers}
	bopt := experiments.BandwidthOptions{
		Options:     opt,
		Workload:    traffic.Gravity,
		MaxFailures: *maxFailures,
	}

	if !*stream && *out == "" {
		// Figure mode: the experiment loop feeding a fold that keeps
		// every sample (exact summary lines), plus the ablation sweep.
		fold := plot.NewFold(*points, math.MaxInt)
		err := runExperiments(ds, *fig, opt, bopt,
			func(_ string, _ int, r any) error { return fold.AddRecord(r) },
			func(exp string, _ int, _ map[string]*stats.Digest) error { fold.Ran(exp); return nil })
		if err != nil {
			return err
		}
		if plot.Needs(*fig, "ablation") {
			abl, err := experiments.PreferenceRangeAblation(ds, opt, plot.AblationBounds)
			if err != nil {
				return err
			}
			fold.SetAblation(abl)
		}
		return fold.Render(stdout, *fig)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	write := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		return bw.Flush() // one line out per result: truly incremental
	}
	type envelope struct {
		Experiment string `json:"experiment"`
		Index      int    `json:"index"`
		Data       any    `json:"data"`
	}
	type summary struct {
		Experiment string            `json:"experiment"`
		Results    int               `json:"results"`
		Series     map[string]string `json:"series"`
		// Digests carries each series' mergeable state, so nexitplot can
		// fold sharded runs back into one whole-run summary (run
		// elsewhere, aggregate here — DESIGN.md §10).
		Digests map[string]*stats.Digest `json:"digests,omitempty"`
	}
	return runExperiments(ds, *fig, opt, bopt,
		func(exp string, idx int, r any) error { return write(envelope{exp, idx, r}) },
		func(exp string, n int, digests map[string]*stats.Digest) error {
			sum := summary{Experiment: exp, Results: n, Series: map[string]string{}, Digests: digests}
			for name, d := range digests {
				sum.Series[name] = d.Summary()
			}
			return write(sum)
		})
}

// writeHeapProfile writes a profile of the live heap to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // report live objects, not GC-collectible garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runExperiments runs every experiment the -fig selection needs, in a
// fixed order, handing each record to record and then each
// experiment's record count and summary digests to summary. Output
// order is deterministic (the runner's ordered reducer), so two runs
// with the same flags are byte-identical regardless of -workers.
func runExperiments(ds *experiments.Dataset, fig string, opt experiments.Options, bopt experiments.BandwidthOptions,
	record func(exp string, idx int, r any) error, summary func(exp string, n int, digests map[string]*stats.Digest) error) error {
	// The extras sweeps renegotiate pairs repeatedly, so unbounded runs
	// are capped.
	capAt := func(n, limit int) int {
		if n == 0 || n > limit {
			return limit
		}
		return n
	}
	dOpt, sOpt, stOpt := opt, opt, bopt
	dOpt.MaxPairs = capAt(opt.MaxPairs, 100)  // destination-based comparison
	sOpt.MaxPairs = capAt(opt.MaxPairs, 60)   // scalability renegotiates each pair 6 times
	stOpt.MaxPairs = capAt(bopt.MaxPairs, 40) // stability replay
	stOpt.MaxFailures = capAt(bopt.MaxFailures, 300)

	// Each experiment streams its records through rec, with the values
	// its summary line digests, one per series name.
	type emit func(idx int, r any, values ...float64) error
	for _, e := range []struct {
		name   string
		series []string
		run    func(rec emit) error
	}{
		{"distance", []string{"gain_negotiated", "gain_optimal"}, func(rec emit) error {
			return experiments.DistanceStream(ds, opt, func(i int, r *experiments.DistancePairResult) error {
				return rec(i, r, r.GainNeg, r.GainOpt)
			})
		}},
		{"bandwidth", []string{"up_negotiated", "down_negotiated"}, func(rec emit) error {
			_, err := experiments.BandwidthStream(ds, bopt, func(i int, r *experiments.BandwidthCaseResult) error {
				return rec(i, r, r.UpNeg, r.DownNeg)
			})
			return err
		}},
		{"distance-cheat", []string{"total_truthful", "total_cheat"}, func(rec emit) error {
			return experiments.DistanceCheatStream(ds, opt, func(i int, r *experiments.CheatPairResult) error {
				return rec(i, r, r.TotalTruthful, r.TotalCheat)
			})
		}},
		{"destination", []string{"gain_dst_only"}, func(rec emit) error {
			return experiments.DestinationStream(ds, dOpt, func(i int, r *experiments.DestinationPairResult) error {
				return rec(i, r, r.GainDstOnly)
			})
		}},
		{"scalability", []string{"gain_share_20pct_traffic"}, func(rec emit) error {
			return experiments.ScalabilityStream(ds, sOpt, plot.ScalabilityFractions,
				func(i int, r *experiments.ScalabilityPairResult) error { return rec(i, r, r.GainShares[0]) })
		}},
		{"stability", []string{"reactive_worst_mel"}, func(rec emit) error {
			_, err := experiments.StabilityStream(ds, stOpt, func(i int, r *experiments.StabilityCaseResult) error {
				return rec(i, r, r.ReactiveWorst)
			})
			return err
		}},
	} {
		if !plot.Needs(fig, e.name) {
			continue
		}
		digests := make(map[string]*stats.Digest, len(e.series))
		for _, name := range e.series {
			digests[name] = stats.NewDigest()
		}
		n := 0
		err := e.run(func(idx int, r any, values ...float64) error {
			for i, v := range values {
				digests[e.series[i]].Add(v)
			}
			n++
			return record(e.name, idx, r)
		})
		if err != nil {
			return err
		}
		if err := summary(e.name, n, digests); err != nil {
			return err
		}
	}
	return nil
}

func loadDataset(path string, isps, workers int) (*experiments.Dataset, error) {
	if path != "" && isps > 0 {
		return nil, fmt.Errorf("-isps sizes the generated dataset and conflicts with -dataset %s", path)
	}
	if path == "" {
		cfg := gen.DefaultConfig()
		if isps > 0 {
			cfg.NumISPs = isps
		}
		// Generation shards per ISP (dataset format v2) over the same
		// worker pool the experiments use; the dataset is identical at
		// every -workers value.
		return experiments.LoadWorkers(cfg, workers)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	loaded, err := topology.Read(f)
	if err != nil {
		return nil, err
	}
	return experiments.FromISPs(loaded), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nexitsim:", err)
	os.Exit(1)
}
