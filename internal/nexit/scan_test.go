package nexit

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestScanFastMatchesReference drives Negotiate across randomized
// preference tables and every policy combination, then replays each
// transcript's accept decisions through the oracle loop, which
// cross-checks every propose against the reference scan and every stop
// check against the O(items) histogram reference. Any divergence — in a
// round, or between the engine's and the oracle's results — fails the
// test.
//
// The trials deliberately cover the regimes the cache must survive:
// vetoes (via BatchAcceptHook and VetoIfLoss), batched planning with
// partial accepts, preference reassignment, extra deficit allowances,
// and preference tables whose default class is nonzero (the engine
// clamps but does not normalize evaluator output).
func TestScanFastMatchesReference(t *testing.T) {
	turns := []TurnPolicy{Alternate, LowerGain, CoinToss}
	proposes := []ProposePolicy{MaxSum, BestLocal}
	accepts := []AcceptPolicy{AlwaysAccept, VetoIfLoss}
	stops := []StopPolicy{StopEarly, StopWhilePositive, StopNever}
	rng := rand.New(rand.NewSource(77))
	deficitRounds := 0
	for trial := 0; trial < 400; trial++ {
		na := 1 + rng.Intn(5)
		n := 1 + rng.Intn(40)
		p := 10
		if trial%3 == 0 {
			p = 3
		}
		// A third of the trials skew the tables against one side so its
		// cumulative gain dips negative and the deficit-recovery scans
		// run (residues 0 and 1 are the max-sum, early-stop trials).
		// Every 5th trial leaves the default's class random.
		biasA, biasB := 0, 0
		switch trial % 12 {
		case 0, 6:
			biasA, biasB = p/2+1, -p/2-1
		case 1, 7:
			biasA, biasB = -p/2-1, p/2+1
		}
		tblA, tblB, items, defaults := randomUniverse(rng, n, na, p, trial%5 != 0, biasA, biasB)
		cfg := Config{
			PrefBound: p,
			Turn:      turns[trial%len(turns)],
			Propose:   proposes[(trial/2)%len(proposes)],
			Accept:    accepts[(trial/3)%len(accepts)],
			Stop:      stops[(trial/4)%len(stops)],
			Rng:       rand.New(rand.NewSource(int64(trial))),
		}
		switch trial % 4 {
		case 0:
			cfg.ReassignFraction = 0.25
		case 1:
			cfg.ExtraDeficitA = rng.Intn(2 * p)
			cfg.ExtraDeficitB = rng.Intn(2 * p)
		}
		switch trial % 7 {
		case 2:
			// Deterministic vetoes exercise scanCache invalidation.
			cfg.BatchAcceptHook = func(batch []Proposal) int {
				for i, pr := range batch {
					if (pr.ItemID+pr.Alt)%3 == 0 {
						return i
					}
				}
				return len(batch)
			}
		case 3:
			// Random accepted prefixes exercise planBatch's simulated
			// commits and the histogram restore path.
			hookRng := rand.New(rand.NewSource(int64(trial) * 31))
			cfg.BatchAcceptHook = func(batch []Proposal) int {
				return hookRng.Intn(len(batch) + 1)
			}
		}
		res := checkAgainstOracle(t, trial, cfg, tblA, tblB, items, defaults, na)
		if cfg.Propose != MaxSum || cfg.Stop != StopEarly {
			continue
		}
		// The deficit-filtered scans run only here. shouldStop ends a
		// max-sum negotiation before any negative-sum proposal, so the
		// sum of the gains never drops below zero: a deficit side is
		// always covered by the other side's surplus, and the doubly-
		// negative state TestScanDoublyNegativeState forces is
		// unreachable.
		gA, gB := 0, 0
		for _, pr := range res.Transcript {
			if gA < 0 || gB < 0 {
				deficitRounds++
			}
			if pr.Accepted {
				gA, gB = gA+pr.PrefA, gB+pr.PrefB
			}
			if gA+gB < 0 {
				t.Fatalf("trial %d round %d: gains %d and %d sum below zero", trial, pr.Round, gA, gB)
			}
		}
	}
	if deficitRounds == 0 {
		t.Fatal("no max-sum round was proposed with a side in deficit")
	}
}

// TestScanDoublyNegativeState checks the deficit cache's guard on the
// other side's gain. The cached deficit scan assumes that gain is
// non-negative; with both gains negative, scanMaxSum must fall back to
// the reference scan. Negotiation never reaches that state (see
// TestScanFastMatchesReference), so the test forces it on fresh
// negotiations: scanMaxSum must match the reference, and the cached
// scan alone must disagree somewhere, or the guard would be untested.
func TestScanDoublyNegativeState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cachedWrong := 0
	for trial := 0; trial < 1000; trial++ {
		na := 2 + rng.Intn(4)
		n := 2 + rng.Intn(20)
		p := 3 + rng.Intn(8)
		tblA, tblB, items, defaults := randomUniverse(rng, n, na, p, trial%2 == 0, 0, 0)
		cfg := Config{PrefBound: p, Propose: MaxSum, Accept: AlwaysAccept, Stop: StopEarly}
		if trial%3 == 0 {
			cfg.ExtraDeficitA, cfg.ExtraDeficitB = rng.Intn(p), rng.Intn(p)
		}
		ev := func(tbl map[int][]int) *StaticEvaluator { return &StaticEvaluator{NumAlts: na, Table: tbl} }
		neg, err := newNegotiation(cfg, ev(tblA), ev(tblB), items, defaults, na)
		if err != nil {
			t.Fatal(err)
		}
		// Any gains within the deficit bounds, both negative.
		neg.result.GainA = -1 - rng.Intn(p+cfg.ExtraDeficitA)
		neg.result.GainB = -1 - rng.Intn(p+cfg.ExtraDeficitB)
		for _, f := range []scanFilter{filterDeficitA, filterDeficitB} {
			for _, side := range []Side{SideA, SideB} {
				type pick struct {
					id, alt int
					ok      bool
				}
				var ref, got, cached pick
				ref.id, ref.alt, ref.ok = neg.scanMaxSumRef(side, f)
				got.id, got.alt, got.ok = neg.scanMaxSum(side, f)
				cached.id, cached.alt, cached.ok = neg.scanMaxSumFast(side, f)
				if got != ref {
					t.Fatalf("trial %d filter %d side %v at gains %d/%d: scanMaxSum %+v, reference %+v",
						trial, f, side, neg.result.GainA, neg.result.GainB, got, ref)
				}
				if cached != ref {
					cachedWrong++
				}
			}
		}
	}
	if cachedWrong == 0 {
		t.Fatal("the cached deficit scan matched the reference in every doubly-negative state; the guard is untested")
	}
	t.Logf("cached scan wrong in %d doubly-negative scans", cachedWrong)
}

// checkAgainstOracle negotiates one trial, sanity-checks the result and
// replays it through the oracle loop, which must agree round by round.
func checkAgainstOracle(t *testing.T, trial int, cfg Config, tblA, tblB map[int][]int, items []Item, defaults []int, na int) *Result {
	t.Helper()
	ev := func(tbl map[int][]int) *StaticEvaluator { return &StaticEvaluator{NumAlts: na, Table: tbl} }
	res, err := Negotiate(cfg, ev(tblA), ev(tblB), items, defaults, na)
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
	for i, a := range res.Assign {
		if a < 0 || a >= na {
			t.Fatalf("trial %d: item %d assigned %d (na=%d)", trial, i, a, na)
		}
	}
	if res.Rounds > len(items)*na*6+32 {
		t.Fatalf("trial %d: %d rounds for %d items (runaway)", trial, res.Rounds, len(items))
	}

	replay := func(_ Side, pr Proposal) bool {
		if pr.Round >= len(res.Transcript) {
			t.Fatalf("trial %d: oracle reached round %d past the engine's %d", trial, pr.Round, len(res.Transcript))
		}
		rec := res.Transcript[pr.Round]
		if pr.Accepted = rec.Accepted; pr != rec {
			t.Fatalf("trial %d round %d: oracle proposed %+v, engine %+v", trial, pr.Round, pr, rec)
		}
		return rec.Accepted
	}
	if cfg.BatchAcceptHook == nil {
		replay = nil // the oracle applies cfg.Accept itself
	}
	cfg.Rng = rand.New(rand.NewSource(int64(trial)))
	if want := negotiateOracle(t, cfg, ev(tblA), ev(tblB), items, defaults, na, replay); !reflect.DeepEqual(want, res) {
		t.Fatalf("trial %d: engine diverged from the oracle\noracle: %+v\nengine: %+v", trial, want, res)
	}
	return res
}
