package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
)

// pin is the record stream a workload must deliver for one seed on
// the default dataset: its record count and the sha256 of its records'
// JSON encodings, one per line, in delivery order.
type pin struct {
	records int
	digest  string
}

// pins holds the shipped digests by workload and seed. Each covers one
// full pass at the default dataset size. The seed reaches only the
// distance experiments' flow-local baselines and no part of the
// bandwidth experiments' gravity workload, so the bandwidth pins coincide.
var pins = map[string]map[int64]pin{
	"distance": {
		1: {1086, "3e68e483469aea1b3bd815111b9f4fcb8d0d7c8a8b58fd8d9a7e45024d98dc66"},
		2: {1086, "2f1f6ece41432901f7847bec915eb9ee6a37266487ae443b05409c190a330e91"},
	},
	"bandwidth": {
		1: {1777, "e427ceefa0115f60eeb5814fccb6a6aabfe25f860819102f3053b12223e4a3a8"},
		2: {1777, "e427ceefa0115f60eeb5814fccb6a6aabfe25f860819102f3053b12223e4a3a8"},
	},
}

// stream hashes one pass's records as they are delivered, counts the
// ISP pairs they cover and the records that break the workload's
// invariant.
type stream struct {
	h        hash.Hash
	recs     [][sha256.Size]byte
	pairs    int
	lastPair string
	broken   int
}

func newStream() *stream { return &stream{h: sha256.New()} }

// add records one delivered record of ISP pair pair; holds reports
// whether it satisfies the workload's invariant. Consecutive records of
// one pair count as one pair.
func (s *stream) add(rec any, pair string, holds bool) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode record %d: %w", len(s.recs), err)
	}
	s.h.Write(b)
	s.h.Write([]byte{'\n'})
	s.recs = append(s.recs, sha256.Sum256(b))
	if s.pairs == 0 || pair != s.lastPair {
		s.pairs++
		s.lastPair = pair
	}
	if !holds {
		s.broken++
	}
	return nil
}

func (s *stream) digest() string { return hex.EncodeToString(s.h.Sum(nil)) }

// recordGate judges every pass of one invocation: against the pinned
// stream for the seed when one ships, and record by record against the
// invocation's first pass.
type recordGate struct {
	pinned *pin
	first  [][sha256.Size]byte
}

// judge returns how many records a pass should have delivered and how
// many of them are missing, extra or wrong, with a reason for the
// first failure.
func (g *recordGate) judge(s *stream) (attempted, failed int, why string) {
	fail := func(n int, reason string) {
		failed += n
		if why == "" {
			why = reason
		}
	}
	switch {
	case g.pinned != nil:
		attempted = g.pinned.records
	case g.first != nil:
		attempted = len(g.first)
	default:
		attempted = len(s.recs)
	}
	if d := len(s.recs) - attempted; d != 0 {
		fail(max(d, -d), fmt.Sprintf("%d records delivered, %d expected", len(s.recs), attempted))
	}
	if g.pinned != nil && s.digest() != g.pinned.digest {
		// Without a per-record reference every record is suspect.
		fail(attempted, fmt.Sprintf("stream digest %s, pinned %s", s.digest(), g.pinned.digest))
	}
	for i := 0; i < min(len(g.first), len(s.recs)); i++ {
		if s.recs[i] != g.first[i] {
			fail(1, fmt.Sprintf("record %d differs from the first pass", i))
		}
	}
	if s.broken > 0 {
		fail(s.broken, fmt.Sprintf("%d records break the workload invariant", s.broken))
	}
	if g.first == nil {
		g.first = s.recs
	}
	return attempted, min(failed, max(attempted, len(s.recs))), why
}
