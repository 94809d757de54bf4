package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/capacity"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/nexit"
	"repro/internal/optimal"
	"repro/internal/pairsim"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The experiments package salts the workload seed per stream; the
// traced passes must draw the same per-pair RNGs (see experiments/run.go).
const (
	saltDistance  = 1
	saltBandwidth = 2
	saltCheat     = 4
)

// prefBound is the paper's preference class bound P, the experiments'
// default.
const prefBound = 10

// loadDataset is the experiment workloads' set-up: generate the
// dataset and warm every ISP's routing table. It is timed as setup_s.
func loadDataset(cfg benchConfig, r *recorder) (*experiments.Dataset, error) {
	gc := cfg.genConfig()
	r.begin("gen")
	ds, err := experiments.LoadWorkers(gc, cfg.workers)
	r.end()
	if err != nil {
		return nil, err
	}
	r.count("gen.isps", float64(len(ds.ISPs)))
	r.begin("routing")
	ds.Warm(cfg.workers)
	r.end()
	r.count("routing.tables", float64(len(ds.ISPs)))
	return ds, nil
}

func (cfg benchConfig) options() experiments.Options {
	return experiments.Options{Seed: cfg.expSeed(), PrefBound: prefBound, Workers: cfg.workers}
}

// distancePass streams the §5.1 and §5.4 distance experiments (Figures
// 4–6 and 10) over every eligible pair into st.
func distancePass(ds *experiments.Dataset, cfg benchConfig, st *stream) error {
	err := experiments.DistanceStream(ds, cfg.options(), func(_ int, r *experiments.DistancePairResult) error {
		return st.add(r, r.Pair, distanceHolds(r))
	})
	if err != nil {
		return err
	}
	return experiments.DistanceCheatStream(ds, cfg.options(), func(_ int, r *experiments.CheatPairResult) error {
		return st.add(r, r.Pair, cheatHolds(r))
	})
}

// roundOff is the largest loss, in percent of the default distance,
// that float summation order alone can produce: a negotiated
// assignment equal to the default in cost can still differ from it by
// ~1e-14 %.
const roundOff = 1e-9

// distanceHolds is the seed-independent invariant of §5.1: under
// negotiation neither ISP and not the pair loses distance.
func distanceHolds(r *experiments.DistancePairResult) bool {
	return r.GainNeg >= -roundOff && r.IndNegA >= -roundOff && r.IndNegB >= -roundOff
}

// cheatHolds is distanceHolds for the truthful negotiation of the
// cheating experiment.
func cheatHolds(r *experiments.CheatPairResult) bool {
	return r.TotalTruthful >= -roundOff && r.IndTruthfulA >= -roundOff && r.IndTruthfulB >= -roundOff
}

// bandwidthPass streams the §5.2 failure experiments (Figures 7–9, 11)
// over every failure case into st.
func bandwidthPass(ds *experiments.Dataset, cfg benchConfig, st *stream) error {
	_, err := experiments.BandwidthStream(ds, experiments.BandwidthOptions{Options: cfg.options()},
		func(_ int, r *experiments.BandwidthCaseResult) error { return st.add(r, r.Pair, true) })
	return err
}

// tracedPairs is runner.ForEachPair with each pair's work recorded on
// its own recorder, plus the runner's busy time (pair evaluation) and
// the in-order consumer's wait for the next record.
func tracedPairs[R any](t *tracer, cfg benchConfig, pairs []*topology.Pair, salt int64,
	fn func(r *recorder, pair *topology.Pair, rng *rand.Rand) (R, error), sink func(R) error) error {
	var sinkTime time.Duration
	start := time.Now()
	err := runner.ForEachPair(pairs, runner.Options{Workers: cfg.workers, Seed: cfg.expSeed() + salt},
		func(_ int, pair *topology.Pair, rng *rand.Rand) (R, error) {
			r := t.recorder()
			t0 := time.Now()
			res, err := fn(r, pair, rng)
			r.flush()
			t.add("runner.pair", time.Since(t0))
			return res, err
		},
		func(_ int, res R) error {
			t0 := time.Now()
			err := sink(res)
			sinkTime += time.Since(t0)
			return err
		})
	wall := time.Since(start)
	t.count("runner.capacity_s", wall.Seconds()*float64(cfg.workers))
	t.count("runner.sink_wait_s", (wall - sinkTime).Seconds())
	return err
}

// pairSetup mirrors the distance experiments' per-pair state: flows in both
// directions under early-exit defaults.
type pairSetup struct {
	s, rev   *pairsim.System
	items    []nexit.Item
	defaults []int
}

func newPairSetup(r *recorder, pair *topology.Pair, cache *pairsim.TableCache) pairSetup {
	s := pairsim.New(pair, cache)
	rev := s.Reverse()
	r.begin("traffic")
	wAB := traffic.New(pair.A, pair.B, traffic.Identical, nil)
	wBA := traffic.New(pair.B, pair.A, traffic.Identical, nil)
	r.end()
	items := nexit.Items(wAB.Flows, wBA.Flows)
	r.count("traffic.items", float64(len(items)))
	defaults := make([]int, len(items))
	for i, it := range items {
		if it.Dir == nexit.AtoB {
			defaults[i] = s.EarlyExit(it.Flow)
		} else {
			defaults[i] = rev.EarlyExit(it.Flow)
		}
	}
	return pairSetup{s: s, rev: rev, items: items, defaults: defaults}
}

// itemDist is an item's end-to-end distance under alternative k and
// its split inside ISP A and ISP B.
func (ps pairSetup) itemDist(it nexit.Item, k int) (total, inA, inB float64) {
	if it.Dir == nexit.AtoB {
		inA, inB = ps.s.UpDistKm(it.Flow, k), ps.s.DownDistKm(it.Flow, k)
	} else {
		inB, inA = ps.rev.UpDistKm(it.Flow, k), ps.rev.DownDistKm(it.Flow, k)
	}
	return inA + inB + ps.s.Pair.Interconnections[k].LengthKm, inA, inB
}

func (ps pairSetup) distances(assign []int) (total, inA, inB float64) {
	for i, it := range ps.items {
		t, a, b := ps.itemDist(it, assign[i])
		total += t
		inA += a
		inB += b
	}
	return total, inA, inB
}

func pairLabel(p *topology.Pair) string { return p.A.Name + "-" + p.B.Name }

// distanceTraced re-drives distancePass through the layers' public
// calls with spans around each.
func distanceTraced(ds *experiments.Dataset, cfg benchConfig, t *tracer, st *stream) error {
	pairs := ds.DistancePairs()
	err := tracedPairs(t, cfg, pairs, saltDistance,
		func(r *recorder, pair *topology.Pair, rng *rand.Rand) (*experiments.DistancePairResult, error) {
			return tracedDistancePair(r, ds.Cache, pair, rng)
		},
		func(res *experiments.DistancePairResult) error {
			if res == nil {
				return nil
			}
			return st.add(res, res.Pair, distanceHolds(res))
		})
	if err != nil {
		return err
	}
	return tracedPairs(t, cfg, pairs, saltCheat,
		func(r *recorder, pair *topology.Pair, _ *rand.Rand) (*experiments.CheatPairResult, error) {
			return tracedCheatPair(r, ds.Cache, pair)
		},
		func(res *experiments.CheatPairResult) error {
			if res == nil {
				return nil
			}
			return st.add(res, res.Pair, cheatHolds(res))
		})
}

func tracedDistancePair(r *recorder, cache *pairsim.TableCache, pair *topology.Pair, rng *rand.Rand) (*experiments.DistancePairResult, error) {
	ps := newPairSetup(r, pair, cache)
	defTotal, defA, defB := ps.distances(ps.defaults)
	if defTotal == 0 {
		return nil, nil // degenerate co-located pair, skipped by DistanceStream too
	}
	na := ps.s.NumAlternatives()
	optAssign := make([]int, len(ps.items))
	for i, it := range ps.items {
		best, bestD := 0, math.Inf(1)
		for k := 0; k < na; k++ {
			if d, _, _ := ps.itemDist(it, k); d < bestD {
				best, bestD = k, d
			}
		}
		optAssign[i] = best
	}

	cfg := nexit.DefaultDistanceConfig()
	cfg.PrefBound = prefBound
	neg, err := r.negotiate(cfg,
		nexit.NewDistanceEvaluator(ps.s, nexit.SideA, prefBound),
		nexit.NewDistanceEvaluator(ps.s, nexit.SideB, prefBound),
		ps.items, ps.defaults, na)
	if err != nil {
		return nil, err
	}

	r.begin("baseline")
	dA, dB := baseline.DistanceDeltas(ps.s, ps.items, ps.defaults)
	r.end()
	r.begin("baseline")
	paretoAssign := baseline.FlowLocal(baseline.FlowPareto, dA, dB, ps.defaults, rng)
	r.end()
	r.begin("baseline")
	bothAssign := baseline.FlowLocal(baseline.FlowBothBetter, dA, dB, ps.defaults, rng)
	r.end()
	r.begin("baseline")
	groupAssign, err := baseline.GroupNegotiate(cfg,
		r.wrap(nexit.NewDistanceEvaluator(ps.s, nexit.SideA, prefBound)),
		r.wrap(nexit.NewDistanceEvaluator(ps.s, nexit.SideB, prefBound)),
		ps.items, ps.defaults, na, 4)
	r.end()
	if err != nil {
		return nil, err
	}

	optTotal, optA, optB := ps.distances(optAssign)
	negTotal, negA, negB := ps.distances(neg.Assign)
	parTotal, _, _ := ps.distances(paretoAssign)
	bothTotal, _, _ := ps.distances(bothAssign)
	grpTotal, _, _ := ps.distances(groupAssign)
	out := &experiments.DistancePairResult{
		Pair:             pairLabel(pair),
		Interconnections: na,
		GainOpt:          metrics.GainPercent(defTotal, optTotal),
		GainNeg:          metrics.GainPercent(defTotal, negTotal),
		GainPareto:       metrics.GainPercent(defTotal, parTotal),
		GainBothBetter:   metrics.GainPercent(defTotal, bothTotal),
		GainGroup4:       metrics.GainPercent(defTotal, grpTotal),
		IndOptA:          metrics.GainPercent(defA, optA),
		IndOptB:          metrics.GainPercent(defB, optB),
		IndNegA:          metrics.GainPercent(defA, negA),
		IndNegB:          metrics.GainPercent(defB, negB),
	}
	nonDefault := 0
	for i, it := range ps.items {
		dDef, _, _ := ps.itemDist(it, ps.defaults[i])
		dNeg, _, _ := ps.itemDist(it, neg.Assign[i])
		dOpt, _, _ := ps.itemDist(it, optAssign[i])
		if dDef > 0 {
			out.FlowGainNeg = append(out.FlowGainNeg, metrics.GainPercent(dDef, dNeg))
			out.FlowGainOpt = append(out.FlowGainOpt, metrics.GainPercent(dDef, dOpt))
		}
		if neg.Assign[i] != ps.defaults[i] {
			nonDefault++
		}
	}
	out.NonDefaultFraction = float64(nonDefault) / float64(len(ps.items))
	return out, nil
}

func tracedCheatPair(r *recorder, cache *pairsim.TableCache, pair *topology.Pair) (*experiments.CheatPairResult, error) {
	ps := newPairSetup(r, pair, cache)
	defTotal, defA, defB := ps.distances(ps.defaults)
	if defTotal == 0 {
		return nil, nil
	}
	na := ps.s.NumAlternatives()
	cfg := nexit.DefaultDistanceConfig()
	cfg.PrefBound = prefBound
	run := func(evalA nexit.Evaluator) (*nexit.Result, error) {
		evalB := nexit.NewDistanceEvaluator(ps.s, nexit.SideB, prefBound)
		return r.negotiate(cfg, evalA, evalB, ps.items, ps.defaults, na)
	}
	honest, err := run(nexit.NewDistanceEvaluator(ps.s, nexit.SideA, prefBound))
	if err != nil {
		return nil, err
	}
	cheat, err := run(&nexit.CheatEvaluator{
		Truthful: nexit.NewDistanceEvaluator(ps.s, nexit.SideA, prefBound),
		Other:    nexit.NewDistanceEvaluator(ps.s, nexit.SideB, prefBound),
		P:        prefBound,
	})
	if err != nil {
		return nil, err
	}
	hTotal, hA, hB := ps.distances(honest.Assign)
	cTotal, cA, cB := ps.distances(cheat.Assign)
	return &experiments.CheatPairResult{
		Pair:          pairLabel(pair),
		TotalTruthful: metrics.GainPercent(defTotal, hTotal),
		TotalCheat:    metrics.GainPercent(defTotal, cTotal),
		IndTruthfulA:  metrics.GainPercent(defA, hA),
		IndTruthfulB:  metrics.GainPercent(defB, hB),
		IndCheater:    metrics.GainPercent(defA, cA),
		IndVictim:     metrics.GainPercent(defB, cB),
		CheaterDelta:  metrics.GainPercent(defA, cA) - metrics.GainPercent(defA, hA),
	}, nil
}

// failureCase mirrors BandwidthStream's state for one (pair,
// failed interconnection) scenario.
type failureCase struct {
	pair               *topology.Pair
	failed             int
	s2                 *pairsim.System
	impacted           []traffic.Flow
	items              []nexit.Item
	defaults           []int
	fixedUp, fixedDown []float64
	capUp, capDown     []float64
	defAssign          pairsim.Assignment
	defUp, defDown     float64
}

// buildFailureCase simulates the failure of interconnection k for
// gravity traffic A->B, or returns nil when no flow is impacted.
func buildFailureCase(r *recorder, pair *topology.Pair, cache *pairsim.TableCache, k int, rng *rand.Rand) *failureCase {
	s := pairsim.New(pair, cache)
	r.begin("traffic")
	w := traffic.New(pair.A, pair.B, traffic.Gravity, rng)
	r.end()
	r.count("traffic.items", float64(len(w.Flows)))
	r.begin("baseline")
	pre := baseline.EarlyExit(s, w.Flows)
	r.end()
	loadUp0, loadDown0 := s.Loads(w.Flows, pre)
	fc := &failureCase{
		pair:    pair,
		failed:  k,
		capUp:   capacity.Assign(loadUp0, capacity.Options{}),
		capDown: capacity.Assign(loadDown0, capacity.Options{}),
	}
	var unaffected []traffic.Flow
	for _, f := range w.Flows {
		if pre[f.ID] == k {
			fc.impacted = append(fc.impacted, f)
		} else {
			unaffected = append(unaffected, f)
		}
	}
	if len(fc.impacted) == 0 {
		return nil
	}
	fc.s2 = pairsim.New(pair.WithoutInterconnection(k), cache)
	fc.fixedUp = make([]float64, len(pair.A.Links))
	fc.fixedDown = make([]float64, len(pair.B.Links))
	for _, f := range unaffected {
		idx := pre[f.ID]
		if idx > k {
			idx--
		}
		fc.s2.AddFlowLoad(fc.fixedUp, fc.fixedDown, f, idx)
	}
	fc.items = make([]nexit.Item, len(fc.impacted))
	fc.defaults = make([]int, len(fc.impacted))
	reIndexed := make([]traffic.Flow, len(fc.impacted))
	for i, f := range fc.impacted {
		f.ID = i
		reIndexed[i] = f
		fc.items[i] = nexit.Item{ID: i, Flow: f, Dir: nexit.AtoB}
		fc.defaults[i] = fc.s2.EarlyExit(f)
	}
	fc.impacted = reIndexed
	fc.defAssign = append(pairsim.Assignment(nil), fc.defaults...)
	fc.defUp, fc.defDown = fc.mels(fc.defAssign)
	return fc
}

func (fc *failureCase) mels(assign pairsim.Assignment) (up, down float64) {
	loadUp := append([]float64(nil), fc.fixedUp...)
	loadDown := append([]float64(nil), fc.fixedDown...)
	for _, f := range fc.impacted {
		fc.s2.AddFlowLoad(loadUp, loadDown, f, assign[f.ID])
	}
	return metrics.MEL(loadUp, fc.capUp), metrics.MEL(loadDown, fc.capDown)
}

func (fc *failureCase) downDistance(assign pairsim.Assignment) float64 {
	var sum float64
	for _, f := range fc.impacted {
		sum += fc.s2.DownDistKm(f, assign[f.ID])
	}
	return sum
}

func (fc *failureCase) evaluator(side nexit.Side) nexit.Evaluator {
	if side == nexit.SideB {
		return nexit.NewBandwidthEvaluator(fc.s2, side, prefBound, fc.fixedDown, fc.capDown)
	}
	return nexit.NewBandwidthEvaluator(fc.s2, side, prefBound, fc.fixedUp, fc.capUp)
}

// bandwidthTraced re-drives bandwidthPass through the layers' public
// calls with spans around each.
func bandwidthTraced(ds *experiments.Dataset, cfg benchConfig, t *tracer, st *stream) error {
	return tracedPairs(t, cfg, ds.BandwidthPairs(), saltBandwidth,
		func(r *recorder, pair *topology.Pair, rng *rand.Rand) ([]*experiments.BandwidthCaseResult, error) {
			var out []*experiments.BandwidthCaseResult
			for k := 0; k < pair.NumInterconnections(); k++ {
				fc := buildFailureCase(r, pair, ds.Cache, k, rng)
				if fc == nil {
					continue
				}
				res, err := tracedFailureCase(r, fc)
				if err != nil {
					return nil, err
				}
				out = append(out, res)
			}
			return out, nil
		},
		func(rs []*experiments.BandwidthCaseResult) error {
			for _, res := range rs {
				if err := st.add(res, res.Pair, true); err != nil {
					return err
				}
			}
			return nil
		})
}

func tracedFailureCase(r *recorder, fc *failureCase) (*experiments.BandwidthCaseResult, error) {
	na := fc.s2.NumAlternatives()
	r.begin("optimal")
	lp, err := optimal.Bandwidth(fc.s2, fc.impacted, fc.fixedUp, fc.fixedDown, fc.capUp, fc.capDown)
	r.end()
	if err != nil {
		return nil, err
	}
	r.count("optimal.lp_vars", float64(len(fc.impacted)*na))

	cfg := nexit.DefaultBandwidthConfig()
	cfg.PrefBound = prefBound
	neg, err := r.negotiate(cfg, fc.evaluator(nexit.SideA), fc.evaluator(nexit.SideB), fc.items, fc.defaults, na)
	if err != nil {
		return nil, err
	}
	negUp, negDown := fc.mels(neg.Assign)
	out := &experiments.BandwidthCaseResult{
		Pair:                  pairLabel(fc.pair),
		FailedInterconnection: fc.failed,
		UpDef:                 metrics.Ratio(fc.defUp, lp.MELUp, 1),
		UpNeg:                 metrics.Ratio(negUp, lp.MELUp, 1),
		DownDef:               metrics.Ratio(fc.defDown, lp.MELDown, 1),
		DownNeg:               metrics.Ratio(negDown, lp.MELDown, 1),
	}
	nonDef := 0
	for i := range fc.items {
		if neg.Assign[i] != fc.defaults[i] {
			nonDef++
		}
	}
	out.NonDefault = float64(nonDef) / float64(len(fc.items))

	r.begin("baseline")
	uni := baseline.UnilateralUpstream(fc.s2, fc.impacted, fc.fixedUp, fc.capUp)
	r.end()
	_, uniDown := fc.mels(uni)
	out.UnilateralDownRatio = metrics.Ratio(uniDown, fc.defDown, 1)

	div, err := r.negotiate(cfg, fc.evaluator(nexit.SideA), nexit.NewDistanceEvaluator(fc.s2, nexit.SideB, prefBound),
		fc.items, fc.defaults, na)
	if err != nil {
		return nil, err
	}
	divUp, _ := fc.mels(div.Assign)
	out.DiverseUpNeg = metrics.Ratio(divUp, lp.MELUp, 1)
	out.DiverseDownGain = metrics.GainPercent(fc.downDistance(fc.defAssign), fc.downDistance(div.Assign))

	// The cheater reads the victim's live evaluator, as in BandwidthStream.
	victim := fc.evaluator(nexit.SideB)
	cheater := &nexit.CheatEvaluator{Truthful: fc.evaluator(nexit.SideA), Other: victim, P: prefBound}
	cheat, err := r.negotiate(cfg, cheater, victim, fc.items, fc.defaults, na)
	if err != nil {
		return nil, err
	}
	cheatUp, cheatDown := fc.mels(cheat.Assign)
	out.CheatUp = metrics.Ratio(cheatUp, lp.MELUp, 1)
	out.CheatDown = metrics.Ratio(cheatDown, lp.MELDown, 1)
	return out, nil
}
