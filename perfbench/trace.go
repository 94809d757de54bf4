package main

import (
	"sync"
	"time"

	"repro/internal/nexit"
)

// layerStat accumulates the spans recorded under one name: how often
// the layer was called, its total time and its self time (total minus
// the part its child spans cover).
type layerStat struct {
	calls       int64
	total, self time.Duration
}

// tracer collects spans and counters in memory for one traced pass. A
// nil *tracer records nothing, so untraced code paths share the same
// calls.
type tracer struct {
	mu     sync.Mutex
	layers map[string]*layerStat
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{layers: map[string]*layerStat{}, counts: map[string]float64{}}
}

// add records one span without children (safe for concurrent use).
func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stat(name).add(d, d)
}

// count adds n to a counter (safe for concurrent use).
func (t *tracer) count(name string, n float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) stat(name string) *layerStat {
	s := t.layers[name]
	if s == nil {
		s = &layerStat{}
		t.layers[name] = s
	}
	return s
}

func (s *layerStat) add(total, self time.Duration) {
	s.calls++
	s.total += total
	s.self += self
}

// get returns a copy of a layer's totals (zero when never recorded).
func (t *tracer) get(name string) layerStat {
	if s := t.layers[name]; s != nil {
		return *s
	}
	return layerStat{}
}

// frame is an open span on a recorder's stack.
type frame struct {
	name  string
	start time.Time
	child time.Duration
}

// recorder is one goroutine's span stack: spans nest, and a span's
// duration is charged to its parent's child time. It buffers stats
// locally and merges them into the tracer on flush, so concurrent
// workers never contend per span. A nil *recorder records nothing.
type recorder struct {
	t      *tracer
	stack  []frame
	layers map[string]*layerStat
	counts map[string]float64
}

func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	return &recorder{t: t, layers: map[string]*layerStat{}, counts: map[string]float64{}}
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	r.stack = append(r.stack, frame{name: name, start: time.Now()})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	d := time.Since(f.start)
	s := r.layers[f.name]
	if s == nil {
		s = &layerStat{}
		r.layers[f.name] = s
	}
	s.add(d, d-f.child)
	if n := len(r.stack); n > 0 {
		r.stack[n-1].child += d
	}
}

func (r *recorder) count(name string, n float64) {
	if r == nil {
		return
	}
	r.counts[name] += n
}

// flush merges the recorder into its tracer and resets it.
func (r *recorder) flush() {
	if r == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	for name, s := range r.layers {
		dst := r.t.stat(name)
		dst.calls += s.calls
		dst.total += s.total
		dst.self += s.self
	}
	for name, n := range r.counts {
		r.t.counts[name] += n
	}
	clear(r.layers)
	clear(r.counts)
}

// negotiate is nexit.Negotiate inside a "nexit" span, with both
// evaluators timed and the result's counters recorded.
func (r *recorder) negotiate(cfg nexit.Config, evalA, evalB nexit.Evaluator, items []nexit.Item, defaults []int, numAlts int) (*nexit.Result, error) {
	evalA, evalB = r.wrap(evalA), r.wrap(evalB)
	r.begin("nexit")
	res, err := nexit.Negotiate(cfg, evalA, evalB, items, defaults, numAlts)
	r.end()
	if err == nil {
		r.count("nexit.negotiations", 1)
		r.count("nexit.rounds", float64(res.Rounds))
		r.count("nexit.items", float64(len(items)))
		r.count("nexit.items_agreed", float64(res.Negotiated))
		r.count("nexit.items_reverted", float64(res.Reverted))
		r.count("nexit.stop."+res.Stopped.String(), 1)
	}
	return res, err
}

// wrap times an evaluator's calls as "nexit.prefs" and "nexit.commit"
// spans. The engine unwinds trades only through evaluators that
// implement nexit.Reverter, so the wrapper keeps exactly that method
// set: a wrapped evaluator must negotiate exactly like the bare one.
func (r *recorder) wrap(ev nexit.Evaluator) nexit.Evaluator {
	if r == nil {
		return ev
	}
	te := timedEval{inner: ev, r: r}
	if rv, ok := ev.(nexit.Reverter); ok {
		return &timedReverter{timedEval: te, rv: rv}
	}
	return &te
}

type timedEval struct {
	inner nexit.Evaluator
	r     *recorder
}

func (e *timedEval) Prefs(items []nexit.Item, defaults []int) [][]int {
	e.r.begin("nexit.prefs")
	p := e.inner.Prefs(items, defaults)
	e.r.end()
	return p
}

func (e *timedEval) Commit(it nexit.Item, alt int) {
	e.r.begin("nexit.commit")
	e.inner.Commit(it, alt)
	e.r.end()
}

// timedReverter times Revert as commit work: both update the
// evaluator's committed state.
type timedReverter struct {
	timedEval
	rv nexit.Reverter
}

func (e *timedReverter) Revert(it nexit.Item, alt, def int) {
	e.r.begin("nexit.commit")
	e.rv.Revert(it, alt, def)
	e.r.end()
}
