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
		if res.Rounds > n*na*6+32 {
			t.Fatalf("trial %d: %d rounds for %d items (runaway)", trial, res.Rounds, n)
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
	}
}
