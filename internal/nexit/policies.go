package nexit

import "fmt"

// TurnPolicy decides which ISP proposes in a round (paper §4, "Decide
// turn").
type TurnPolicy int

// Turn policies.
const (
	// Alternate has the ISPs take turns, A first (the paper's choice
	// for its experiments).
	Alternate TurnPolicy = iota
	// LowerGain gives the turn to the ISP with the lower cumulative
	// gain, letting it catch up (the paper notes this approximates
	// max-min fairness when metrics are compatible).
	LowerGain
	// CoinToss picks the proposer uniformly at random each round.
	CoinToss
)

// String names the policy.
func (p TurnPolicy) String() string {
	switch p {
	case Alternate:
		return "alternate"
	case LowerGain:
		return "lower-gain"
	case CoinToss:
		return "coin-toss"
	}
	return fmt.Sprintf("turn(%d)", int(p))
}

// ProposePolicy decides which (flow, alternative) the proposer offers
// (paper §4, "Propose an alternative").
type ProposePolicy int

// Propose policies.
const (
	// MaxSum proposes from the set that maximizes the sum of both ISPs'
	// preferences, breaking ties with the proposer's own preference
	// (the paper's choice; approximates Pareto-optimal outcomes).
	MaxSum ProposePolicy = iota
	// BestLocal proposes the proposer's best local alternative with
	// minimal negative impact on the other ISP (the paper's listed
	// alternative).
	BestLocal
)

// String names the policy.
func (p ProposePolicy) String() string {
	switch p {
	case MaxSum:
		return "max-sum"
	case BestLocal:
		return "best-local"
	}
	return fmt.Sprintf("propose(%d)", int(p))
}

// AcceptPolicy decides whether the non-proposing ISP accepts (paper §4,
// "Accept alternative?").
type AcceptPolicy int

// Accept policies.
const (
	// AlwaysAccept accepts every proposal (the paper's experimental
	// setting, evaluating fully cooperative ISPs).
	AlwaysAccept AcceptPolicy = iota
	// VetoIfLoss rejects a proposal whose acceptance would make the
	// acceptor's cumulative gain negative. This is the veto power the
	// paper gives ISPs so that "negotiating carries no risk": a truthful
	// ISP can never end below the default.
	VetoIfLoss
)

// String names the policy.
func (p AcceptPolicy) String() string {
	switch p {
	case AlwaysAccept:
		return "always-accept"
	case VetoIfLoss:
		return "veto-if-loss"
	}
	return fmt.Sprintf("accept(%d)", int(p))
}

// StopPolicy decides when negotiation ends (paper §4, "Stop?").
type StopPolicy int

// Stop policies.
const (
	// StopEarly is the paper's "early termination": an ISP stops when it
	// perceives no additional gain in continuing — implemented as no
	// positive preference class remaining anywhere on its table.
	// Negotiation also stops when no remaining alternative has positive
	// combined gain.
	StopEarly StopPolicy = iota
	// StopWhilePositive is the paper's "full termination": ISPs continue
	// as long as their cumulative gain stays positive, even if lower
	// than under early termination — preferred for social welfare.
	StopWhilePositive
	// StopNever negotiates every flow on the table ("the socially best
	// outcome occurs when ISPs negotiate for all the flows").
	StopNever
)

// String names the policy.
func (p StopPolicy) String() string {
	switch p {
	case StopEarly:
		return "early"
	case StopWhilePositive:
		return "while-positive"
	case StopNever:
		return "never"
	}
	return fmt.Sprintf("stop(%d)", int(p))
}

// decideTurn applies the turn policy.
func (n *negotiation) decideTurn() Side {
	var s Side
	switch n.cfg.Turn {
	case LowerGain:
		switch {
		case n.result.GainA < n.result.GainB:
			s = SideA
		case n.result.GainB < n.result.GainA:
			s = SideB
		default:
			if n.haveTurn {
				s = n.lastTurn.Other()
			} else {
				s = SideA
			}
		}
	case CoinToss:
		if n.cfg.Rng.Intn(2) == 0 {
			s = SideA
		} else {
			s = SideB
		}
	default: // Alternate
		if n.haveTurn {
			s = n.lastTurn.Other()
		} else {
			s = SideA
		}
	}
	n.lastTurn, n.haveTurn = s, true
	return s
}

// affordable reports whether (item, alt) may be proposed given the
// cumulative-gain protections in force.
//
// Under early termination, a side may dip into a bounded cumulative
// deficit — at most one full class unit (-P) below the default — and the
// propose scan then prioritizes its recovery. The dip-and-recover
// pattern is the paper's "trade minor losses on some flows for
// significant gains on others" realized with alternating turns; the
// bound keeps the worst case at one class unit, which in real-metric
// terms is a single q90 delta — negligible against a whole workload, so
// "negotiating carries no risk" holds in practice even though proposals
// are always accepted.
//
// Under VetoIfLoss the proposer additionally self-censors candidates it
// cannot strictly afford (the acceptor protects itself in acceptLocal).
func (n *negotiation) affordable(proposer Side, id, alt int) bool {
	if n.cfg.Stop == StopEarly {
		pa, pb := n.prefsA[id][alt], n.prefsB[id][alt]
		boundA := -n.cfg.PrefBound - n.cfg.ExtraDeficitA
		boundB := -n.cfg.PrefBound - n.cfg.ExtraDeficitB
		if n.result.GainA+pa < boundA || n.result.GainB+pb < boundB {
			return false
		}
	}
	if n.cfg.Accept == VetoIfLoss {
		if proposer == SideA {
			return n.result.GainA+n.prefsA[id][alt] >= 0
		}
		return n.result.GainB+n.prefsB[id][alt] >= 0
	}
	return true
}

// propose applies the propose policy for the given proposer and returns
// the chosen (item, alternative). ok is false when nothing proposable
// remains.
func (n *negotiation) propose(proposer Side) (id, alt int, ok bool) {
	switch n.cfg.Propose {
	case BestLocal:
		// Maximize own preference; break ties by minimizing harm to the
		// other ISP, then by item/alternative index.
		own, other := n.prefsA, n.prefsB
		if proposer == SideB {
			own, other = n.prefsB, n.prefsA
		}
		bestOwn, bestOther := -1<<30, -1<<30
		id, alt = -1, -1
		for _, cand := range n.order {
			for k := 0; k < n.numAlts; k++ {
				if (n.nVetoed > 0 && n.vetoed[[2]int{cand, k}]) || !n.affordable(proposer, cand, k) {
					continue
				}
				o, t := own[cand][k], other[cand][k]
				if o > bestOwn || (o == bestOwn && t > bestOther) {
					bestOwn, bestOther, id, alt = o, t, cand, k
				}
			}
		}
		return id, alt, id >= 0
	default: // MaxSum
		// When a side is in cumulative deficit (it dipped to enable a
		// large joint win), recovery comes first: restrict the scan to
		// candidates strictly positive for the deficit side so its gain
		// is repaired before further trades. Fall back to the normal
		// scan if no recovery candidate is proposable.
		if f := n.deficitFilter(); f != filterNone {
			if id, alt, ok := n.scanMaxSum(proposer, f); ok {
				return id, alt, true
			}
		}
		return n.scanMaxSum(proposer, filterNone)
	}
}

// deficitFilter returns the recovery filter propose's max-sum scan
// tries first: under early termination, the first side (A before B)
// whose cumulative gain is negative; filterNone otherwise.
func (n *negotiation) deficitFilter() scanFilter {
	switch {
	case n.cfg.Stop != StopEarly:
		return filterNone
	case n.result.GainA < 0:
		return filterDeficitA
	case n.result.GainB < 0:
		return filterDeficitB
	}
	return filterNone
}

// scanMaxSum finds the affordable, non-vetoed candidate within filter f
// maximizing the combined preference sum, breaking ties with the
// proposer's own preference, then the lowest item/alternative index. It
// runs the cached scan where that is exact and the reference loop
// everywhere else.
func (n *negotiation) scanMaxSum(proposer Side, f scanFilter) (id, alt int, ok bool) {
	if n.scanCacheExact(f) {
		return n.scanMaxSumFast(proposer, f)
	}
	return n.scanMaxSumRef(proposer, f)
}

// scanCacheExact reports whether the cached scan under filter f is exact
// in the current gain state.
//
// Unfiltered: with both cumulative gains non-negative, clamped
// preferences (|p| <= P) can never trip the StopEarly deficit bounds in
// affordable, and under VetoIfLoss gains of at least P make the
// proposer's self-censoring vacuous — so affordability holds for every
// candidate and the scan outcome depends on the gains only through the
// sum-zero admission rule, which the cache evaluates exactly.
//
// Deficit-filtered (the deficit side's gain is negative, see
// deficitFilter):
//
//   - the filter p_deficit > 0 plus the invariant that the deficit
//     side's gain never fell below its own bound make the StopEarly
//     affordability check vacuous for the deficit side;
//   - the OTHER side's bound is vacuous whenever its gain is
//     non-negative (clamped preferences cannot dip it past -P);
//   - sum-zero candidates are admitted by the same gain window as the
//     unfiltered scan, and with the deficit gain negative that window
//     already forces the deficit side's preference positive — so the
//     shared zero list applies unchanged.
//
// VetoIfLoss self-censoring and a doubly-negative gain state are not
// covered by the deficit cache.
func (n *negotiation) scanCacheExact(f scanFilter) bool {
	gA, gB := n.result.GainA, n.result.GainB
	switch f {
	case filterDeficitA:
		return n.cfg.Accept != VetoIfLoss && gB >= 0
	case filterDeficitB:
		return n.cfg.Accept != VetoIfLoss && gA >= 0
	}
	if gA < 0 || gB < 0 {
		return false
	}
	return n.cfg.Accept != VetoIfLoss || (gA >= n.cfg.PrefBound && gB >= n.cfg.PrefBound)
}

// scanMaxSumFast evaluates each candidate from its scanEntry: an O(1)
// lookup of the cached strict-set best for filter f plus a walk of the
// (typically empty) sum-zero list against the current gains, instead of
// an O(numAlts) pass over both preference tables. Selection rule and
// tie-breaks replicate the reference loop exactly; see scanEntry for the
// argument.
func (n *negotiation) scanMaxSumFast(proposer Side, f scanFilter) (id, alt int, ok bool) {
	id, alt = -1, -1
	bestSum, bestOwn := -1<<30, -1<<30
	ga, gb := n.result.GainA, n.result.GainB
	for _, cand := range n.order {
		if id >= 0 {
			if _, s := n.bestAlt(cand); s < bestSum {
				break
			}
		}
		e := &n.scanCache[cand]
		if !e.ok {
			e = n.buildScanEntry(cand)
		}
		b := &e.strict[f]
		cOK, cs, cOwn, ck := b.ok, b.sum, b.ownA, b.kA
		if proposer == SideB {
			cOwn, ck = b.ownB, b.kB
		}
		// Sum-zero candidates only matter while the strict best is not
		// strictly positive. With prefA + prefB == 0 the both-gains-stay-
		// non-negative admission collapses to -GainA <= prefA <= GainB.
		if e.zeroLen > 0 && cs <= 0 {
			zo := cand * n.numAlts
			for i := 0; i < int(e.zeroLen); i++ {
				pa := int(n.zeroPaBuf[zo+i])
				if pa < -ga || pa > gb {
					continue
				}
				zOwn, zk := pa, n.zeroKBuf[zo+i]
				if proposer == SideB {
					zOwn = -pa
				}
				switch {
				case !cOK || cs < 0:
					cOK, cs, cOwn, ck = true, 0, zOwn, zk
				case zOwn > cOwn || (zOwn == cOwn && zk < ck):
					// Equal (sum, own) resolves to the lowest k, matching
					// the reference loop's first-wins updates.
					cOwn, ck = zOwn, zk
				}
			}
		}
		if cOK && (cs > bestSum || (cs == bestSum && cOwn > bestOwn)) {
			bestSum, bestOwn, id, alt = cs, cOwn, cand, int(ck)
		}
	}
	return id, alt, id >= 0
}

// scanMaxSumRef is the direct scan over the preference tables — the
// reference semantics for scanMaxSumFast and the fallback for the gain
// regimes the cache does not cover. The affordability conditions (see
// affordable) are inlined with their gain- and config-derived bounds
// hoisted out of the loop; the per-candidate preference rows are loaded
// once. Check order within an iteration is immaterial — every clause is
// a pure filter.
func (n *negotiation) scanMaxSumRef(proposer Side, f scanFilter) (id, alt int, ok bool) {
	// The order slice is sorted by best combined gain; once a candidate
	// group can no longer match the best affordable sum found, stop
	// scanning.
	id, alt = -1, -1
	bestSum, bestOwn := -1<<30, -1<<30
	gA, gB := n.result.GainA, n.result.GainB
	stopEarly := n.cfg.Stop == StopEarly
	boundA := -n.cfg.PrefBound - n.cfg.ExtraDeficitA
	boundB := -n.cfg.PrefBound - n.cfg.ExtraDeficitB
	vetoIfLoss := n.cfg.Accept == VetoIfLoss
	own := n.prefsA
	if proposer == SideB {
		own = n.prefsB
	}
	for _, cand := range n.order {
		if id >= 0 {
			if _, s := n.bestAlt(cand); s < bestSum {
				break
			}
		}
		pa, pb, po := n.prefsA[cand], n.prefsB[cand], own[cand]
		def := n.defaults[cand]
		for k := 0; k < n.numAlts; k++ {
			if n.nVetoed > 0 && n.vetoed[[2]int{cand, k}] {
				continue
			}
			pak, pbk := pa[k], pb[k]
			if stopEarly && (gA+pak < boundA || gB+pbk < boundB) {
				continue
			}
			if vetoIfLoss {
				// The proposer self-censors candidates it cannot afford.
				if proposer == SideA {
					if gA+pak < 0 {
						continue
					}
				} else if gB+pbk < 0 {
					continue
				}
			}
			if (f == filterDeficitA && pak <= 0) || (f == filterDeficitB && pbk <= 0) {
				continue
			}
			s := pak + pbk
			// Moving a flow off its default requires non-negative joint
			// gain. (With the asymmetric cardinal rounding, a class is
			// never an underestimate of a loss, so a sum-zero move is
			// at worst marginally harmful and usually beneficial.)
			if k != def && s < 0 {
				continue
			}
			// Sum-zero trades bring no joint class gain, so unlike
			// positive-sum trades they may not dip either side into a
			// deficit: both cumulative gains must stay non-negative.
			if k != def && s == 0 && (gA+pak < 0 || gB+pbk < 0) {
				continue
			}
			if s > bestSum || (s == bestSum && po[k] > bestOwn) {
				bestSum, bestOwn, id, alt = s, po[k], cand, k
			}
		}
	}
	return id, alt, id >= 0
}

// acceptLocal is the in-process acceptor: it applies the accept policy
// to each planned proposal in order and returns how many leading ones
// pass. Proposal i is judged at the gains its round would see — the
// batch-start gains plus the classes of proposals 0..i-1, all accepted
// by then.
func (n *negotiation) acceptLocal(batch []Proposal) int {
	if n.cfg.Accept == AlwaysAccept {
		return len(batch)
	}
	// VetoIfLoss: the acceptor rejects a proposal that would push its
	// cumulative gain negative.
	gA, gB := n.result.GainA, n.result.GainB
	for i, p := range batch {
		if (p.Proposer == SideB && gA+p.PrefA < 0) || (p.Proposer == SideA && gB+p.PrefB < 0) {
			return i
		}
		gA += p.PrefA
		gB += p.PrefB
	}
	return len(batch)
}
