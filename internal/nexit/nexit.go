// Package nexit implements the paper's primary contribution: the Nexit
// negotiation framework (§4), in which two neighboring ISPs disclose only
// coarse, opaque preference classes in [-P, P] and jointly agree on an
// interconnection for every traffic flow they exchange.
//
// The package separates three concerns:
//
//   - Evaluators (evaluator.go) map an ISP's private optimization metric
//     (distance, bandwidth headroom, Fortz–Thorup cost, ...) to opaque
//     preference classes, relative to the default alternative (class 0).
//   - Policies (policies.go) are the five contractually agreed knobs of
//     the round protocol: decide turn, propose, accept, reassign, stop.
//   - The engine (this file) runs the rounds and produces the negotiated
//     assignment plus a full transcript.
//
// The engine is used directly by simulations and, via internal/nexitwire,
// by negotiation agents speaking a TCP protocol (paper §6, Figure 12).
package nexit

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/traffic"
)

// Direction orients a flow between the two ISPs of a pair.
type Direction int

// Flow directions. The pair's ISP A is upstream for AtoB flows and
// downstream for BtoA flows.
const (
	AtoB Direction = iota
	BtoA
)

// String names the direction.
func (d Direction) String() string {
	if d == AtoB {
		return "a->b"
	}
	return "b->a"
}

// Side identifies one of the two negotiating ISPs.
type Side int

// The two sides of a negotiation.
const (
	SideA Side = iota
	SideB
)

// String names the side.
func (s Side) String() string {
	if s == SideA {
		return "A"
	}
	return "B"
}

// Other returns the opposite side.
func (s Side) Other() Side {
	if s == SideA {
		return SideB
	}
	return SideA
}

// Item is one negotiable flow. ID is a dense index in the negotiation
// (distinct from Flow.ID, which indexes the flow within its directional
// workload). Negotiating over flows of both directions at once is
// deliberate: the paper finds that mutual wins require "keeping all the
// traffic on the negotiating table" (§3).
type Item struct {
	ID   int
	Flow traffic.Flow
	Dir  Direction
}

// Items builds the negotiation set from the two directional workloads.
// Either may be nil.
func Items(ab, ba []traffic.Flow) []Item {
	items := make([]Item, 0, len(ab)+len(ba))
	for _, f := range ab {
		items = append(items, Item{ID: len(items), Flow: f, Dir: AtoB})
	}
	for _, f := range ba {
		items = append(items, Item{ID: len(items), Flow: f, Dir: BtoA})
	}
	return items
}

// Config collects the contractually agreed parameters of a negotiation.
type Config struct {
	PrefBound int // P: preferences live in [-P, P]; the paper uses 10

	Turn    TurnPolicy
	Propose ProposePolicy
	Accept  AcceptPolicy
	Stop    StopPolicy
	// ReassignFraction, when positive, triggers preference reassignment
	// after each such fraction of the total traffic size has been
	// negotiated (the paper reassigns every 5% for bandwidth metrics and
	// never for distance metrics).
	ReassignFraction float64

	// Rng drives coin-toss turn decisions and random tie-breaks. Nil
	// selects fully deterministic behavior (lowest index wins ties).
	Rng *rand.Rand

	// BatchAcceptHook, when non-nil, replaces the accept policy. The
	// engine plans the maximal sequence of proposals it would make if
	// every one were accepted (the sequence is deterministic in the
	// current preference state, so it can be computed without committing
	// anything), and the hook returns how many leading proposals the
	// counterpart accepted. A return short of the batch means proposal [n]
	// was vetoed and the tail was never considered; the engine records the
	// veto and replans, exactly as if the proposals had been asked one by
	// one. The wire protocol uses this to carry one frame exchange per
	// batch. When nil, an in-process acceptor applies Accept to each
	// planned proposal in order.
	BatchAcceptHook func(batch []Proposal) int

	// ExtraDeficitA and ExtraDeficitB widen the respective side's
	// cumulative-deficit allowance under early termination. They
	// implement the credit mechanism the paper sketches in §3
	// ("compromises can be decoupled in time using credits"): a side
	// that banked a surplus in earlier sessions extends its deficit
	// bound in later ones to repay. See internal/credits.
	ExtraDeficitA, ExtraDeficitB int
}

// DefaultDistanceConfig returns the configuration the paper uses for the
// distance experiments (§5.1): P=10, alternating turns, max-sum
// proposals with local tie-break, always accept, no reassignment, early
// termination.
func DefaultDistanceConfig() Config {
	return Config{
		PrefBound: 10,
		Turn:      Alternate,
		Propose:   MaxSum,
		Accept:    AlwaysAccept,
		Stop:      StopEarly,
	}
}

// DefaultBandwidthConfig returns the §5.2 configuration: as distance,
// plus preference reassignment after each 5% of traffic.
func DefaultBandwidthConfig() Config {
	c := DefaultDistanceConfig()
	c.ReassignFraction = 0.05
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PrefBound <= 0 {
		return fmt.Errorf("nexit: PrefBound must be positive")
	}
	if c.ReassignFraction < 0 || c.ReassignFraction > 1 {
		return fmt.Errorf("nexit: ReassignFraction must be in [0,1]")
	}
	if c.Turn == CoinToss && c.Rng == nil {
		return fmt.Errorf("nexit: CoinToss turn policy requires an Rng")
	}
	return nil
}

// Proposal records one round of the negotiation transcript.
type Proposal struct {
	Round    int
	Proposer Side
	ItemID   int
	Alt      int
	PrefA    int // A's disclosed preference for the chosen alternative
	PrefB    int
	Accepted bool
}

// Result is the outcome of a negotiation.
type Result struct {
	// Assign maps Item.ID to the agreed interconnection. Items left on
	// the table when negotiation stopped keep their default.
	Assign []int
	// GainA and GainB are cumulative disclosed preference gains.
	GainA, GainB int
	// Rounds is the number of proposal rounds executed.
	Rounds int
	// Negotiated counts items agreed through proposals (as opposed to
	// falling back to the default at termination).
	Negotiated int
	// Reverted counts trades undone by the terminal unwind (see below):
	// when negotiation ends with one side in its bounded deficit and no
	// way to recover, its most harmful trades are rolled back to the
	// default until neither side is below zero. With floor-rounded
	// classes this guarantees no real loss for either ISP.
	Reverted int
	// Transcript lists every proposal in order, accepted or vetoed. It is
	// always recorded.
	Transcript []Proposal
	// Stopped describes why negotiation ended.
	Stopped StopReason
}

// StopReason says why the negotiation terminated.
type StopReason int

// Termination causes.
const (
	StopAllNegotiated  StopReason = iota // every item was agreed
	StopNoJointGain                      // best remaining combined gain <= 0
	StopSideCannotGain                   // one side has no positive preference left
	StopCumulativeLoss                   // continuing would push a side's cumulative gain negative
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopAllNegotiated:
		return "all-negotiated"
	case StopNoJointGain:
		return "no-joint-gain"
	case StopSideCannotGain:
		return "side-cannot-gain"
	case StopCumulativeLoss:
		return "cumulative-loss"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Evaluator is one ISP's private view: it maps flow alternatives to
// opaque preference classes and tracks internal state (such as link
// loads) as flows are committed.
type Evaluator interface {
	// Prefs returns, for each item, the preference class of every
	// alternative, relative to the item's default alternative (which
	// must map to class 0). Preferences must lie in [-P, P].
	//
	// Ownership contract: the returned rows may live on evaluator-owned
	// scratch buffers and are only guaranteed valid until the next Prefs
	// (or RawDeltas) call on the same evaluator. Callers that retain
	// preferences across calls must copy them — the engine copies every
	// row via clampPrefsInto before the counterpart evaluator runs.
	Prefs(items []Item, defaults []int) [][]int
	// Commit informs the evaluator that an item was agreed to use alt.
	Commit(item Item, alt int)
}

// Reverter is implemented by stateful evaluators that can undo a Commit
// when the terminal unwind moves an item back to its default
// alternative.
type Reverter interface {
	// Revert undoes a prior Commit of alt and re-commits the item to
	// def.
	Revert(item Item, alt, def int)
}

// negotiation is the engine's mutable state.
type negotiation struct {
	cfg      Config
	items    []Item
	defaults []int
	evalA    Evaluator
	evalB    Evaluator

	prefsA, prefsB [][]int
	remaining      []bool
	vetoed         map[[2]int]bool // (itemID, alt) pairs rejected by veto
	nVetoed        int             // live veto count; skips map lookups when zero
	numAlts        int

	// order holds remaining item IDs sorted by best combined gain,
	// descending; rebuilt after reassignment or veto.
	order []int

	// bestCache memoizes bestAlt per item ID: proposal scans call it
	// O(order) times per round but its inputs (prefs, vetoes) only
	// change on reassignment or veto, so entries survive whole runs of
	// commits. Invalidated per ID on veto, wholesale on refreshPrefs.
	bestCache []bestEntry

	// scanCache memoizes, per item, the gain-independent outcome of the
	// propose scan's inner alternative loop (see scanEntry); zeroPaBuf/
	// zeroKBuf hold each item's sum-zero candidates in segment
	// [id*numAlts, id*numAlts+zeroLen). Invalidated like bestCache.
	scanCache []scanEntry
	zeroPaBuf []int32
	zeroKBuf  []int32

	// Selected-class histograms back maxSelectedPref: selA/selB record
	// each remaining item's class at its currently selected (bestAlt)
	// alternative, histA/histB count them per class (index p+PrefBound),
	// and selCount tracks how many items are in. Maintained across
	// commits so the per-round stop check is O(P) instead of O(items).
	selA, selB   []int
	selIn        []bool
	histA, histB []int32
	selCount     int
	// orderSums is rebuildOrder's per-ID sort-key scratch.
	orderSums []int
	// remScratch and defScratch are refreshPrefs' working sets.
	remScratch []Item
	defScratch []int

	// commits records accepted trades with their historical classes for
	// the terminal unwind.
	commits []commitRecord

	// batch, committed and orderSnap are runBatched's per-batch scratch:
	// the planned proposals, the items planning took off the table, and
	// the order to restore afterwards.
	batch     []Proposal
	committed []int
	orderSnap []int

	result *Result

	totalSize     float64
	sinceReassign float64
	lastTurn      Side
	haveTurn      bool
}

// bestEntry caches one bestAlt result.
type bestEntry struct {
	alt, sum int
	ok       bool
}

// scanFilter selects the candidate set of a max-sum scan: unfiltered,
// or the deficit-recovery pass restricted to alternatives the deficit
// side strictly gains on.
type scanFilter int

const (
	filterNone     scanFilter = iota
	filterDeficitA            // prefsA[k] > 0
	filterDeficitB            // prefsB[k] > 0
)

// scanEntry caches the gain-independent part of one item's inner loop in
// scanMaxSum. The admissible alternatives split into:
//
//   - the strict set — the default alternative plus every k with
//     combined sum > 0. Its best (sum, own-pref) under the scan's
//     selection rule depends only on prefs and vetoes, never on the
//     cumulative gains, so it is cached once per filter (strict[f]) with
//     both sides' own-pref tie-breaks.
//   - the zero set — non-default alternatives with combined sum == 0.
//     Their admissibility DOES depend on the gains (both cumulative
//     gains must stay non-negative), but with prefA + prefB == 0 the
//     condition collapses to -GainA <= prefA <= GainB, so the scan
//     evaluates the cached (prefA, k) list against the current gains in
//     O(list) with no prefs-table loads.
//
// The zero list is shared by every filter: when the deficit side's gain
// is negative, the sum-zero admission window already implies the deficit
// side's preference is positive, so no filtered copy is needed.
//
// Entries are exact only in the regimes scanCacheExact admits; any other
// state falls back to the reference loop.
type scanEntry struct {
	ok      bool
	zeroLen int32
	strict  [3]scanBest // indexed by scanFilter
}

// scanBest is the best strict candidate of one filter: its combined sum
// and, per proposer side, the highest own preference at that sum and the
// first alternative attaining it.
type scanBest struct {
	ok         bool
	sum        int
	ownA, ownB int
	kA, kB     int32
}

// offer folds alternative k (classes pa, pb) into the best. Callers
// offer in ascending k, and only strictly greater values replace, so
// ties keep the first alternative — the reference loop's tie-break.
func (b *scanBest) offer(k, pa, pb int) {
	switch s := pa + pb; {
	case !b.ok || s > b.sum:
		*b = scanBest{ok: true, sum: s, ownA: pa, ownB: pb, kA: int32(k), kB: int32(k)}
	case s == b.sum:
		if pa > b.ownA {
			b.ownA, b.kA = pa, int32(k)
		}
		if pb > b.ownB {
			b.ownB, b.kB = pb, int32(k)
		}
	}
}

// buildScanEntry fills the cache entry for one item from the current
// preference tables and veto set.
func (n *negotiation) buildScanEntry(id int) *scanEntry {
	e := &n.scanCache[id]
	def := n.defaults[id]
	pa, pb := n.prefsA[id], n.prefsB[id]
	e.strict = [3]scanBest{}
	zo := id * n.numAlts
	zl := 0
	for k := 0; k < n.numAlts; k++ {
		if n.nVetoed > 0 && n.vetoed[[2]int{id, k}] {
			continue
		}
		switch s := pa[k] + pb[k]; {
		case k == def || s > 0:
			e.strict[filterNone].offer(k, pa[k], pb[k])
			if pa[k] > 0 {
				e.strict[filterDeficitA].offer(k, pa[k], pb[k])
			}
			if pb[k] > 0 {
				e.strict[filterDeficitB].offer(k, pa[k], pb[k])
			}
		case s == 0:
			n.zeroPaBuf[zo+zl] = int32(pa[k])
			n.zeroKBuf[zo+zl] = int32(k)
			zl++
		}
	}
	e.zeroLen = int32(zl)
	e.ok = true
	return e
}

// Negotiate runs the protocol and returns the result. numAlts is the
// number of interconnections (alternatives per item); defaults[i] is the
// default alternative of items[i] (what the flow uses absent agreement).
func Negotiate(cfg Config, evalA, evalB Evaluator, items []Item, defaults []int, numAlts int) (*Result, error) {
	n, err := newNegotiation(cfg, evalA, evalB, items, defaults, numAlts)
	if err != nil {
		return nil, err
	}
	n.runBatched()
	n.unwindDeficits()
	return n.result, nil
}

// newNegotiation validates the inputs, sizes the engine state for them
// and collects the initial preferences.
func newNegotiation(cfg Config, evalA, evalB Evaluator, items []Item, defaults []int, numAlts int) (*negotiation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(items) != len(defaults) {
		return nil, fmt.Errorf("nexit: %d items but %d defaults", len(items), len(defaults))
	}
	if numAlts <= 0 {
		return nil, fmt.Errorf("nexit: numAlts must be positive")
	}
	for i, it := range items {
		if it.ID != i {
			return nil, fmt.Errorf("nexit: item %d has ID %d; IDs must be dense", i, it.ID)
		}
		if defaults[i] < 0 || defaults[i] >= numAlts {
			return nil, fmt.Errorf("nexit: item %d default %d out of range", i, defaults[i])
		}
	}

	n := &negotiation{
		cfg:      cfg,
		items:    items,
		defaults: defaults,
		evalA:    evalA,
		evalB:    evalB,
		numAlts:  numAlts,
		vetoed:   make(map[[2]int]bool),
		result:   &Result{Assign: append([]int(nil), defaults...)},
	}
	n.remaining = make([]bool, len(items))
	for i := range n.remaining {
		n.remaining[i] = true
	}
	n.bestCache = make([]bestEntry, len(items))
	n.scanCache = make([]scanEntry, len(items))
	n.zeroPaBuf = make([]int32, len(items)*numAlts)
	n.zeroKBuf = make([]int32, len(items)*numAlts)
	n.selA = make([]int, len(items))
	n.selB = make([]int, len(items))
	n.selIn = make([]bool, len(items))
	n.histA = make([]int32, 2*cfg.PrefBound+1)
	n.histB = make([]int32, 2*cfg.PrefBound+1)
	// Every planned proposal takes a distinct item off the table, so no
	// batch outgrows the item count.
	n.batch = make([]Proposal, 0, len(items))
	n.committed = make([]int, 0, len(items))
	n.orderSnap = make([]int, 0, len(items))
	for _, it := range items {
		n.totalSize += it.Flow.Size
	}
	n.refreshPrefs()
	return n, nil
}

// commitRecord pairs a committed item with the classes it was accepted
// at (preferences may be reassigned later, so gains must be reverted at
// their historical values).
type commitRecord struct {
	id, alt  int
	pA, pB   int
	reverted bool
}

// unwindDeficits rolls back trades at termination while either side's
// cumulative gain is negative: the deficit side's most harmful committed
// trade (ties: cheapest for the other side) reverts to the default. Each
// record reverts at most once, so the loop terminates; afterwards both
// gains are >= 0 because a negative cumulative gain always contains a
// negative-class trade. Combined with floor-rounded classes (every class
// is a lower bound on the real improvement), non-negative final class
// gains imply neither ISP's real metric ends worse than the default.
func (n *negotiation) unwindDeficits() {
	if n.cfg.Stop == StopNever {
		return // all-flows mode trades social welfare deliberately
	}
	for {
		var sideA bool
		switch {
		case n.result.GainA < -n.cfg.ExtraDeficitA:
			sideA = true
		case n.result.GainB < -n.cfg.ExtraDeficitB:
			sideA = false
		default:
			return
		}
		best := -1
		for i, rec := range n.commits {
			if rec.reverted || n.result.Assign[rec.id] != rec.alt || rec.alt == n.defaults[rec.id] {
				continue
			}
			own, other := rec.pA, rec.pB
			if !sideA {
				own, other = rec.pB, rec.pA
			}
			if own >= 0 {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			bOwn, bOther := n.commits[best].pA, n.commits[best].pB
			if !sideA {
				bOwn, bOther = n.commits[best].pB, n.commits[best].pA
			}
			if own < bOwn || (own == bOwn && other < bOther) {
				best = i
			}
		}
		if best == -1 {
			return // no revertible harmful trade (cannot happen with gains < 0 over non-reverted trades)
		}
		rec := &n.commits[best]
		rec.reverted = true
		n.result.Assign[rec.id] = n.defaults[rec.id]
		n.result.GainA -= rec.pA
		n.result.GainB -= rec.pB
		n.result.Reverted++
		it := n.items[rec.id]
		if r, ok := n.evalA.(Reverter); ok {
			r.Revert(it, rec.alt, n.defaults[rec.id])
		}
		if r, ok := n.evalB.(Reverter); ok {
			r.Revert(it, rec.alt, n.defaults[rec.id])
		}
	}
}

// refreshPrefs (re)collects preference lists from both evaluators for
// the remaining items and rebuilds the selection order.
func (n *negotiation) refreshPrefs() {
	rem := n.remScratch[:0]
	for _, it := range n.items {
		if n.remaining[it.ID] {
			rem = append(rem, it)
		}
	}
	defaults := n.defScratch[:0]
	for _, it := range rem {
		defaults = append(defaults, n.defaults[it.ID])
	}
	n.remScratch, n.defScratch = rem, defaults
	if n.prefsA == nil {
		n.prefsA = make([][]int, len(n.items))
		n.prefsB = make([][]int, len(n.items))
	}
	// Clamp each side's rows into negotiation-owned storage before the
	// counterpart evaluator runs: evaluators hand out views of reusable
	// scratch (see the Evaluator ownership contract), so the returned
	// slices are never adopted directly and never read after another
	// Prefs call that might share their backing.
	pa := n.evalA.Prefs(rem, defaults)
	for i, it := range rem {
		n.prefsA[it.ID] = clampPrefsInto(n.prefsA[it.ID], pa[i], n.cfg.PrefBound)
	}
	pb := n.evalB.Prefs(rem, defaults)
	for i, it := range rem {
		n.prefsB[it.ID] = clampPrefsInto(n.prefsB[it.ID], pb[i], n.cfg.PrefBound)
	}
	for i := range n.bestCache {
		n.bestCache[i].ok = false
		n.scanCache[i].ok = false
	}
	n.selRebuild()
	n.rebuildOrder()
}

// selRebuild repopulates the selected-class histograms for the remaining
// items from scratch (after a wholesale preference refresh).
func (n *negotiation) selRebuild() {
	for i := range n.histA {
		n.histA[i] = 0
		n.histB[i] = 0
	}
	for i := range n.selIn {
		n.selIn[i] = false
	}
	n.selCount = 0
	for id := range n.items {
		if n.remaining[id] {
			n.selAdd(id)
		}
	}
}

// selAdd counts item id into the selected-class histograms at its
// current bestAlt classes.
func (n *negotiation) selAdd(id int) {
	alt, _ := n.bestAlt(id)
	a, b := n.prefsA[id][alt], n.prefsB[id][alt]
	n.selA[id], n.selB[id] = a, b
	n.histA[a+n.cfg.PrefBound]++
	n.histB[b+n.cfg.PrefBound]++
	n.selIn[id] = true
	n.selCount++
}

// selRemove removes item id from the histograms (no-op if absent).
func (n *negotiation) selRemove(id int) {
	if !n.selIn[id] {
		return
	}
	n.histA[n.selA[id]+n.cfg.PrefBound]--
	n.histB[n.selB[id]+n.cfg.PrefBound]--
	n.selIn[id] = false
	n.selCount--
}

func clampPrefsInto(dst, p []int, bound int) []int {
	if cap(dst) < len(p) {
		dst = make([]int, len(p))
	}
	dst = dst[:len(p)]
	for i, v := range p {
		if v > bound {
			v = bound
		}
		if v < -bound {
			v = -bound
		}
		dst[i] = v
	}
	return dst
}

// bestAlt returns the best non-vetoed alternative of an item under the
// max-sum criterion and its combined gain.
func (n *negotiation) bestAlt(id int) (alt, sum int) {
	if e := n.bestCache[id]; e.ok {
		return e.alt, e.sum
	}
	alt, sum = n.defaults[id], 0
	bestSum := -1 << 30
	for k := 0; k < n.numAlts; k++ {
		if n.nVetoed > 0 && n.vetoed[[2]int{id, k}] {
			continue
		}
		s := n.prefsA[id][k] + n.prefsB[id][k]
		if s > bestSum {
			bestSum, alt = s, k
		}
	}
	n.bestCache[id] = bestEntry{alt: alt, sum: bestSum, ok: true}
	return alt, bestSum
}

// rebuildOrder sorts remaining item IDs by best combined gain descending
// (ties by ID for determinism).
func (n *negotiation) rebuildOrder() {
	n.order = n.order[:0]
	for id := range n.items {
		if n.remaining[id] {
			n.order = append(n.order, id)
		}
	}
	if n.orderSums == nil {
		n.orderSums = make([]int, len(n.items))
	}
	for _, id := range n.order {
		_, s := n.bestAlt(id)
		n.orderSums[id] = s
	}
	sort.SliceStable(n.order, func(i, j int) bool {
		if n.orderSums[n.order[i]] != n.orderSums[n.order[j]] {
			return n.orderSums[n.order[i]] > n.orderSums[n.order[j]]
		}
		return n.order[i] < n.order[j]
	})
}

// veto excludes an (item, alt) pair and re-evaluates the order.
func (n *negotiation) veto(id, alt int) {
	n.vetoed[[2]int{id, alt}] = true
	n.nVetoed++
	n.selRemove(id)
	n.bestCache[id].ok = false
	n.scanCache[id].ok = false
	n.selAdd(id) // re-count at the post-veto selected alternative
	n.rebuildOrder()
}

// engineSnap captures the engine state planBatch mutates while
// simulating rounds, so runBatched can restore it before applying the
// counterpart's decisions for real.
type engineSnap struct {
	gainA, gainB, rounds int
	sinceReassign        float64
	lastTurn             Side
	haveTurn             bool
}

func (n *negotiation) snapshot() engineSnap {
	return engineSnap{
		gainA: n.result.GainA, gainB: n.result.GainB, rounds: n.result.Rounds,
		sinceReassign: n.sinceReassign, lastTurn: n.lastTurn, haveTurn: n.haveTurn,
	}
}

func (n *negotiation) restore(s engineSnap) {
	n.result.GainA, n.result.GainB, n.result.Rounds = s.gainA, s.gainB, s.rounds
	n.sinceReassign, n.lastTurn, n.haveTurn = s.sinceReassign, s.lastTurn, s.haveTurn
	for _, id := range n.committed {
		n.remaining[id] = true
		// Prefs, vetoes, and bestAlt are untouched by planning, so
		// re-counting restores the histograms to the pre-plan state.
		n.selAdd(id)
	}
	n.order = append(n.order[:0], n.orderSnap...)
}

// runBatched is the engine loop. Instead of asking the counterpart about
// one proposal per round, the engine plans the maximal run of proposals
// it would make if every one were accepted and submits them as a batch —
// to Config.BatchAcceptHook, or to the in-process acceptLocal. The plan
// is a faithful simulation of the round loop (same decideTurn/propose/
// shouldStop code over the same state), so applying the accepted prefix
// reproduces the one-proposal-per-round protocol of §4 exactly; a veto
// truncates the batch at the vetoed proposal, which is recorded and
// replanned around.
//
// A batch ends early at a reassignment boundary (preferences must be
// recollected before further rounds can be planned) and is capped at
// one proposal under CoinToss turns: planning ahead would draw turn
// decisions from the Rng for proposals a veto may discard, desyncing
// the stream from the round-by-round protocol.
func (n *negotiation) runBatched() {
	maxBatch := 0 // unlimited
	if n.cfg.Turn == CoinToss {
		maxBatch = 1
	}
	for {
		n.compactOrder()
		if len(n.order) == 0 {
			n.result.Stopped = StopAllNegotiated
			return
		}
		snap := n.snapshot()
		n.orderSnap = append(n.orderSnap[:0], n.order...)
		n.batch, n.committed = n.batch[:0], n.committed[:0]
		reason, stopped := n.planBatch(maxBatch)
		n.restore(snap)
		batch := n.batch
		if len(batch) == 0 {
			// The very next round stops; no proposal ever reaches the
			// counterpart.
			n.result.Stopped = reason
			return
		}
		var accepted int
		if n.cfg.BatchAcceptHook != nil {
			accepted = min(max(n.cfg.BatchAcceptHook(batch), 0), len(batch))
		} else {
			accepted = n.acceptLocal(batch)
		}
		for _, p := range batch[:accepted] {
			n.result.Transcript = append(n.result.Transcript, p)
			n.result.Rounds++
			n.lastTurn, n.haveTurn = p.Proposer, true
			n.commit(p.ItemID, p.Alt, p.PrefA, p.PrefB)
		}
		if accepted < len(batch) {
			// Proposal [accepted] was vetoed and the tail discarded.
			p := batch[accepted]
			p.Accepted = false
			n.result.Transcript = append(n.result.Transcript, p)
			n.result.Rounds++
			n.lastTurn, n.haveTurn = p.Proposer, true
			n.veto(p.ItemID, p.Alt)
			continue
		}
		if stopped {
			// Fully accepted and the simulation saw the stop condition
			// fire on the round after the batch; the state after apply
			// equals the simulated state, so the stop holds as derived.
			n.result.Stopped = reason
			return
		}
	}
}

// planBatch simulates rounds assuming every proposal is accepted,
// appending to n.batch, until a stop condition fires (returned with
// stopped=true), a reassignment boundary is crossed, or maxBatch
// proposals are planned (stopped=false: more rounds may follow once the
// batch is applied). Simulated commits touch only the bookkeeping that
// decideTurn/propose/shouldStop read — gains, rounds, remaining, order,
// traffic counters — never evaluators, assignments, or the transcript;
// n.committed collects the IDs taken off the table so restore can put
// them back.
func (n *negotiation) planBatch(maxBatch int) (StopReason, bool) {
	for {
		n.compactOrder()
		if len(n.order) == 0 {
			return StopAllNegotiated, true
		}
		proposer := n.decideTurn()
		id, alt, ok := n.propose(proposer)
		if !ok {
			proposer = proposer.Other()
			n.lastTurn = proposer
			id, alt, ok = n.propose(proposer)
		}
		if !ok {
			return StopNoJointGain, true
		}
		if reason, stop := n.shouldStop(id, alt); stop {
			return reason, true
		}
		pA, pB := n.prefsA[id][alt], n.prefsB[id][alt]
		n.batch = append(n.batch, Proposal{
			Round: n.result.Rounds, Proposer: proposer, ItemID: id, Alt: alt,
			PrefA: pA, PrefB: pB, Accepted: true,
		})
		n.result.Rounds++
		n.remaining[id] = false
		n.selRemove(id)
		n.committed = append(n.committed, id)
		n.result.GainA += pA
		n.result.GainB += pB
		n.sinceReassign += n.items[id].Flow.Size
		if n.cfg.ReassignFraction > 0 && n.totalSize > 0 &&
			n.sinceReassign >= n.cfg.ReassignFraction*n.totalSize {
			// The real commit of this proposal refreshes preferences;
			// nothing past it can be planned from the current tables.
			return 0, false
		}
		if maxBatch > 0 && len(n.batch) >= maxBatch {
			return 0, false
		}
	}
}

// compactOrder drops already-negotiated IDs from the head of the order.
func (n *negotiation) compactOrder() {
	live := n.order[:0]
	for _, id := range n.order {
		if n.remaining[id] {
			live = append(live, id)
		}
	}
	n.order = live
}

// maxSelectedPref returns each side's highest preference class over the
// alternatives that WOULD be selected for the remaining items under the
// agreed (max-sum) criterion. This is what an ISP "perceives" about the
// rest of the negotiation: alternatives the criterion will never pick do
// not count as potential gain. With a cheating counterpart this is what
// makes the truthful ISP walk away — its favorable alternatives are
// still on the table but the distorted sums ensure they are never
// selected (paper §5.4: "the negotiation terminates prematurely as the
// truthful ISP stops when it sees no benefit for itself").
// The histograms are maintained incrementally over exactly the items in
// n.order (order is compacted to the remaining set before every caller),
// so the scan is O(P) per round instead of O(remaining items).
func (n *negotiation) maxSelectedPref() (maxA, maxB int) {
	maxA, maxB = -1<<30, -1<<30
	if n.selCount == 0 {
		return maxA, maxB
	}
	for p := len(n.histA) - 1; p >= 0; p-- {
		if n.histA[p] > 0 {
			maxA = p - n.cfg.PrefBound
			break
		}
	}
	for p := len(n.histB) - 1; p >= 0; p-- {
		if n.histB[p] > 0 {
			maxB = p - n.cfg.PrefBound
			break
		}
	}
	return maxA, maxB
}

// shouldStop applies the stop policy to the concrete next proposal
// (id, alt). See policies.go for the semantics.
func (n *negotiation) shouldStop(id, alt int) (StopReason, bool) {
	if n.cfg.Stop == StopNever {
		return 0, false
	}
	pA, pB := n.prefsA[id][alt], n.prefsB[id][alt]
	// If even the best remaining combined gain is strictly negative, no
	// joint gain remains. (Neutral, sum-zero proposals are allowed
	// through: the default alternative always sums to zero, and with
	// reassignment a neutral commitment can unlock later gains — the
	// paper's Figure 3 walkthrough starts with exactly such a proposal.)
	bestSum := pA + pB
	if n.cfg.Propose != MaxSum && len(n.order) > 0 {
		_, bestSum = n.bestAlt(n.order[0])
		for _, cand := range n.order[1:] {
			if _, s := n.bestAlt(cand); s > bestSum {
				bestSum = s
			}
		}
	}
	if bestSum < 0 {
		return StopNoJointGain, true
	}
	switch n.cfg.Stop {
	case StopEarly:
		// "Negotiation stops when one of the ISPs cannot gain more": a
		// side that has no positive preference anywhere left on the
		// table stops rather than absorb a strictly negative proposal.
		// Neutral proposals (class 0) are let through — the paper's
		// Figure 3 walkthrough depends on an indifferent ISP accepting.
		maxA, maxB := n.maxSelectedPref()
		walkA := maxA <= 0 && pA < 0
		if walkA && n.cfg.ExtraDeficitA > 0 {
			// The side is repaying credit banked in earlier sessions
			// (internal/credits): it keeps conceding down to its
			// extended deficit bound instead of stopping at its peak.
			walkA = n.result.GainA+pA < -n.cfg.ExtraDeficitA
		}
		walkB := maxB <= 0 && pB < 0
		if walkB && n.cfg.ExtraDeficitB > 0 {
			walkB = n.result.GainB+pB < -n.cfg.ExtraDeficitB
		}
		if walkA || walkB {
			return StopSideCannotGain, true
		}
	case StopWhilePositive:
		// Full termination: continue while both cumulative gains would
		// stay non-negative after this proposal.
		if n.result.GainA+pA < 0 || n.result.GainB+pB < 0 {
			return StopCumulativeLoss, true
		}
	}
	return 0, false
}

// commit finalizes an accepted proposal.
func (n *negotiation) commit(id, alt, pA, pB int) {
	n.commits = append(n.commits, commitRecord{id: id, alt: alt, pA: pA, pB: pB})
	n.remaining[id] = false
	n.selRemove(id)
	n.result.Assign[id] = alt
	n.result.GainA += pA
	n.result.GainB += pB
	n.result.Negotiated++
	it := n.items[id]
	n.evalA.Commit(it, alt)
	n.evalB.Commit(it, alt)
	n.sinceReassign += it.Flow.Size
	if n.cfg.ReassignFraction > 0 && n.totalSize > 0 &&
		n.sinceReassign >= n.cfg.ReassignFraction*n.totalSize {
		n.sinceReassign = 0
		n.refreshPrefs()
	}
}
