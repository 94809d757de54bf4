package nexit

import (
	"math/rand"
	"testing"

	"repro/internal/traffic"
)

// negotiateOracle is the reference Negotiate: the same set-up, then the
// round loop of §4 run one proposal per round — decide turn, propose,
// stop check, accept — with no batch planning. Every round also
// cross-checks the cached scan against proposeRef and the histogram stop
// check against maxSelectedPrefRef.
//
// accept decides each proposal; nil applies cfg.Accept at the gains of
// the round (acceptPolicy).
func negotiateOracle(t testing.TB, cfg Config, evalA, evalB Evaluator, items []Item, defaults []int, numAlts int,
	accept func(acceptor Side, p Proposal) bool) *Result {
	t.Helper()
	n, err := newNegotiation(cfg, evalA, evalB, items, defaults, numAlts)
	if err != nil {
		t.Fatal(err)
	}
	if accept == nil {
		accept = n.acceptPolicy
	}
	n.runSerial(t, accept)
	n.unwindDeficits()
	return n.result
}

// runSerial executes rounds until a stop condition fires or everything
// is negotiated.
func (n *negotiation) runSerial(t testing.TB, accept func(acceptor Side, p Proposal) bool) {
	t.Helper()
	for {
		n.compactOrder()
		if len(n.order) == 0 {
			n.result.Stopped = StopAllNegotiated
			return
		}
		gotA, gotB := n.maxSelectedPref()
		if wantA, wantB := n.maxSelectedPrefRef(); gotA != wantA || gotB != wantB {
			t.Fatalf("round %d: maxSelectedPref (%d,%d), reference (%d,%d)", n.result.Rounds, gotA, gotB, wantA, wantB)
		}
		proposer := n.decideTurn()
		id, alt, ok := n.proposeChecked(t, proposer)
		if !ok {
			// The proposer has nothing it can afford to propose; give
			// the other side one chance before concluding.
			proposer = proposer.Other()
			n.lastTurn = proposer
			id, alt, ok = n.proposeChecked(t, proposer)
		}
		if !ok {
			n.result.Stopped = StopNoJointGain
			return
		}
		if reason, stop := n.shouldStop(id, alt); stop {
			n.result.Stopped = reason
			return
		}
		p := Proposal{
			Round: n.result.Rounds, Proposer: proposer, ItemID: id, Alt: alt,
			PrefA: n.prefsA[id][alt], PrefB: n.prefsB[id][alt],
		}
		p.Accepted = accept(proposer.Other(), p)
		n.result.Transcript = append(n.result.Transcript, p)
		n.result.Rounds++
		if !p.Accepted {
			n.veto(id, alt)
			continue
		}
		n.commit(id, alt, p.PrefA, p.PrefB)
	}
}

// proposeChecked is propose, cross-checked against proposeRef.
func (n *negotiation) proposeChecked(t testing.TB, proposer Side) (id, alt int, ok bool) {
	t.Helper()
	id, alt, ok = n.propose(proposer)
	if wantID, wantAlt, wantOK := n.proposeRef(proposer); id != wantID || alt != wantAlt || ok != wantOK {
		t.Fatalf("round %d: propose (%d,%d,%v), reference (%d,%d,%v) at gains (%d,%d)",
			n.result.Rounds, id, alt, ok, wantID, wantAlt, wantOK, n.result.GainA, n.result.GainB)
	}
	return id, alt, ok
}

// proposeRef is propose with every max-sum scan on the reference loop.
func (n *negotiation) proposeRef(proposer Side) (id, alt int, ok bool) {
	if n.cfg.Propose != MaxSum {
		return n.propose(proposer)
	}
	if f := n.deficitFilter(); f != filterNone {
		if id, alt, ok := n.scanMaxSumRef(proposer, f); ok {
			return id, alt, true
		}
	}
	return n.scanMaxSumRef(proposer, filterNone)
}

// acceptPolicy applies the accept policy for the given acceptor at the
// current gains.
func (n *negotiation) acceptPolicy(acceptor Side, p Proposal) bool {
	if n.cfg.Accept == AlwaysAccept {
		return true
	}
	// VetoIfLoss: reject if acceptance would push cumulative gain
	// negative.
	if acceptor == SideA {
		return n.result.GainA+p.PrefA >= 0
	}
	return n.result.GainB+p.PrefB >= 0
}

// maxSelectedPrefRef is maxSelectedPref computed directly over n.order.
func (n *negotiation) maxSelectedPrefRef() (maxA, maxB int) {
	maxA, maxB = -1<<30, -1<<30
	for _, id := range n.order {
		alt, _ := n.bestAlt(id)
		if p := n.prefsA[id][alt]; p > maxA {
			maxA = p
		}
		if p := n.prefsB[id][alt]; p > maxB {
			maxB = p
		}
	}
	return maxA, maxB
}

// randomUniverse draws n items over na alternatives and a preference
// table per side, classes uniform in [-p, p] shifted by the side's bias
// (the engine clamps). Item i defaults to alternative i%na, which has
// class 0 in both tables when honest.
func randomUniverse(rng *rand.Rand, n, na, p int, honest bool, biasA, biasB int) (tblA, tblB map[int][]int, items []Item, defaults []int) {
	table := func(bias int) map[int][]int {
		tbl := map[int][]int{}
		for i := 0; i < n; i++ {
			prefs := make([]int, na)
			for k := range prefs {
				prefs[k] = rng.Intn(2*p+1) - p + bias
			}
			if honest {
				prefs[i%na] = 0
			}
			tbl[i] = prefs
		}
		return tbl
	}
	tblA, tblB = table(biasA), table(biasB)
	items = make([]Item, n)
	defaults = make([]int, n)
	for i := range items {
		items[i] = Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1 + rng.Float64()}, Dir: Direction(i % 2)}
		defaults[i] = i % na
	}
	return tblA, tblB, items, defaults
}
