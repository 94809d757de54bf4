package nexit

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/traffic"
)

// TestBatchAcceptHookMatchesSerial pins the engine loop's core
// guarantee: planning whole runs of proposals and applying the accepted
// prefix produces a Result identical to the one-proposal-per-round
// oracle loop — assignments, gains, rounds, transcript, stop reason,
// everything. Each trial runs three ways: a deterministic veto predicate
// through BatchAcceptHook (asked one proposal at a time by the oracle),
// and no hook under the in-process AlwaysAccept and VetoIfLoss policies.
func TestBatchAcceptHookMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	turns := []TurnPolicy{Alternate, LowerGain, CoinToss}
	stops := []StopPolicy{StopEarly, StopWhilePositive, StopNever}
	for trial := 0; trial < 200; trial++ {
		na := 2 + rng.Intn(4)
		n := 1 + rng.Intn(14)
		tblA, tblB, items, defaults := randomUniverse(rng, n, na, 10, true, 0, 0)
		// A deterministic veto predicate over the proposal fields both
		// paths present identically; every third trial accepts all.
		vetoes := trial%3 != 0
		veto := func(p Proposal) bool {
			return vetoes && (p.ItemID*31+p.Alt*7+p.Round)%5 == 0
		}
		base := Config{
			PrefBound: 10,
			Turn:      turns[trial%len(turns)],
			Propose:   MaxSum,
			Stop:      stops[trial%len(stops)],
		}
		if trial%4 == 1 {
			base.ReassignFraction = 0.2
		}

		compare := func(mode string, cfg Config, accept func(Side, Proposal) bool) {
			ev := func(tbl map[int][]int) *StaticEvaluator { return &StaticEvaluator{NumAlts: na, Table: tbl} }
			cfg.Rng = rand.New(rand.NewSource(int64(trial)))
			want := negotiateOracle(t, cfg, ev(tblA), ev(tblB), items, defaults, na, accept)
			cfg.Rng = rand.New(rand.NewSource(int64(trial)))
			got, err := Negotiate(cfg, ev(tblA), ev(tblB), items, defaults, na)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, mode, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d %s (turn=%v stop=%v reassign=%v vetoes=%v): engine diverged from the oracle\noracle: %+v\nengine: %+v",
					trial, mode, cfg.Turn, cfg.Stop, cfg.ReassignFraction > 0, vetoes, want, got)
			}
		}
		hooked := base
		hooked.BatchAcceptHook = func(batch []Proposal) int {
			for i, p := range batch {
				if veto(p) {
					return i
				}
			}
			return len(batch)
		}
		compare("hook", hooked, func(_ Side, p Proposal) bool { return !veto(p) })
		for _, acc := range []AcceptPolicy{AlwaysAccept, VetoIfLoss} {
			local := base
			local.Accept = acc
			compare(acc.String(), local, nil)
		}
	}
}

// TestBatchAcceptHookBatchShapes checks the batching itself (not just
// the outcome): under Alternate turns with no vetoes the whole
// negotiation should arrive in large batches (one per reassignment
// window), while CoinToss must degrade to single-proposal batches to
// keep Rng draws aligned with the serial reference.
func TestBatchAcceptHookBatchShapes(t *testing.T) {
	na, n := 3, 12
	tbl := map[int][]int{}
	for i := 0; i < n; i++ {
		prefs := make([]int, na)
		for k := range prefs {
			prefs[k] = (i*7+k*3)%5 + 1
		}
		prefs[i%na] = 0
		tbl[i] = prefs
	}
	items := make([]Item, n)
	defaults := make([]int, n)
	for i := 0; i < n; i++ {
		items[i] = Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1}}
		defaults[i] = i % na
	}
	run := func(cfg Config) (sizes []int) {
		cfg.PrefBound = 10
		cfg.BatchAcceptHook = func(batch []Proposal) int {
			sizes = append(sizes, len(batch))
			return len(batch)
		}
		ev := func() *StaticEvaluator { return &StaticEvaluator{NumAlts: na, Table: tbl} }
		if _, err := Negotiate(cfg, ev(), ev(), items, defaults, na); err != nil {
			t.Fatal(err)
		}
		return sizes
	}

	sizes := run(Config{Turn: Alternate, Stop: StopNever})
	if len(sizes) != 1 || sizes[0] != n {
		t.Fatalf("Alternate/no-reassign: want one batch of %d, got %v", n, sizes)
	}
	sizes = run(Config{Turn: CoinToss, Stop: StopNever, Rng: rand.New(rand.NewSource(1))})
	for _, s := range sizes {
		if s != 1 {
			t.Fatalf("CoinToss: want single-proposal batches, got %v", sizes)
		}
	}
}
