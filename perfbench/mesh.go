package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/agentd"
	"repro/internal/continuous"
	"repro/internal/gen"
	"repro/internal/nexit"
	"repro/internal/pairsim"
	"repro/internal/runner"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Mesh workload shape: the §6 deployment with durable state.
const (
	meshEpochs           = 6
	meshVolatility       = 0.25
	meshSnapshotInterval = 2
	quiesceWait          = 5 * time.Second
)

// meshPair is one neighbor pair of the mesh, by dataset index (i < j;
// agent i initiates).
type meshPair struct {
	i, j int
	pair *topology.Pair
}

// meshPairs lists every pair of the dataset that negotiates distance
// (at least two interconnections, logical meshes excluded), in
// dataset order.
func meshPairs(isps []*topology.ISP) []meshPair {
	index := make(map[*topology.ISP]int, len(isps))
	for i, isp := range isps {
		index[isp] = i
	}
	var out []meshPair
	for _, p := range topology.AllPairs(isps, 2, true) {
		out = append(out, meshPair{i: index[p.A], j: index[p.B], pair: p})
	}
	return out
}

// workloads derives a pair's epoch traffic from the workload seed: the
// dataset stays fixed and the seed roots every drift stream. A traced
// pass times each derivation.
func (cfg benchConfig) workloads(mp meshPair, t *tracer) agentd.WorkloadFunc {
	key := agentd.PairKey(mp.i, mp.j, cfg.isps)
	return func(epoch int) (*traffic.Workload, *traffic.Workload) {
		t0 := time.Now()
		wAB, wBA := agentd.EpochWorkloads(mp.pair, cfg.expSeed(), key, epoch, meshVolatility)
		if t != nil {
			t.add("traffic", time.Since(t0))
			t.count("traffic.items", float64(len(wAB.Flows)+len(wBA.Flows)))
		}
		return wAB, wBA
	}
}

type pairReports map[[2]int][]*continuous.EpochReport

// meshReference negotiates every pair's epochs in-process, without
// agents or wire — the serial reference the mesh must reproduce pair by
// pair. Pairs are independent, so they are spread over the workers.
func meshReference(cfg benchConfig) (pairReports, error) {
	isps, err := gen.Generate(cfg.genConfig())
	if err != nil {
		return nil, err
	}
	pairs := meshPairs(isps)
	cache := pairsim.NewTableCache()
	caps := continuous.NewCapacityCache()
	reps := make([][]*continuous.EpochReport, len(pairs))
	errs := make([]error, len(pairs))
	runner.ForEachIndex(len(pairs), cfg.workers, func(pi int) {
		mp := pairs[pi]
		ctl, err := continuous.NewWithMetricShared(pairsim.New(mp.pair, cache), prefBound, continuous.MetricDistance, caps)
		if err != nil {
			errs[pi] = err
			return
		}
		wl := cfg.workloads(mp, nil)
		for epoch := 0; epoch < meshEpochs; epoch++ {
			rep, err := ctl.Epoch(wl(epoch))
			if err != nil {
				errs[pi] = fmt.Errorf("pair (%d,%d) epoch %d: %w", mp.i, mp.j, epoch, err)
				return
			}
			reps[pi] = append(reps[pi], rep)
		}
	})
	out := make(pairReports, len(pairs))
	for pi, mp := range pairs {
		out[[2]int{mp.i, mp.j}] = reps[pi]
	}
	return out, errors.Join(errs...)
}

// meshRun is one mesh pass: its set-up time, negotiation window, the
// initiators' reports, every agent's final status and the epoch errors
// the agents returned.
type meshRun struct {
	setup, window time.Duration
	pairs         int
	reports       pairReports
	statuses      []agentd.Status
	snapBytes     int64
	epochErrs     []error
}

// runMesh builds one agent per participating ISP with a snapshot store
// under stateDir, wires every neighbor pair over in-memory pipes,
// negotiates epochs concurrent epochs (all agents in parallel, a
// barrier per epoch) and tears the mesh down. A failed session does not
// stop the pass: it is counted, and later epochs heal the pair as a
// daemon's would. A traced pass records set-up spans and workload
// derivations on t.
func runMesh(cfg benchConfig, stateDir string, epochs int, t *tracer) (*meshRun, error) {
	// A daemon's -state-dir exists before it starts, so creating the
	// directories is not timed as set-up.
	for i := range cfg.isps {
		if err := os.MkdirAll(filepath.Join(stateDir, agentd.AgentName(i)), 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	r := t.recorder()
	r.begin("gen")
	isps, err := gen.Generate(cfg.genConfig())
	r.end()
	if err != nil {
		return nil, err
	}
	r.count("gen.isps", float64(len(isps)))
	cache := pairsim.NewTableCache()
	r.begin("routing")
	cache.Warm(isps, cfg.workers)
	r.end()
	r.count("routing.tables", float64(len(isps)))
	r.flush()
	pairs := meshPairs(isps)
	caps := continuous.NewCapacityCache()

	listeners := map[int]*pipeListener{}
	agents := map[int]*agentd.Agent{}
	nameToIdx := map[string]int{}
	for _, mp := range pairs {
		for _, i := range []int{mp.i, mp.j} {
			if listeners[i] == nil {
				listeners[i] = newPipeListener()
				nameToIdx[agentd.AgentName(i)] = i
			}
		}
	}
	serveErr := make(chan error, len(listeners))
	torn := false
	teardown := func() {
		if torn {
			return
		}
		torn = true
		for _, ln := range listeners {
			ln.Close()
		}
		for _, a := range agents {
			a.Close()
		}
		for _, a := range agents {
			a.Wait() // in-flight snapshot writes land too
		}
		for range agents {
			<-serveErr // every Serve goroutine has returned
		}
	}
	defer teardown()
	for i := range listeners {
		name := agentd.AgentName(i)
		store, err := snapshot.NewStore(filepath.Join(stateDir, name), 0)
		if err != nil {
			return nil, err
		}
		a := agentd.New(agentd.Config{
			Name: name, MaxSessions: cfg.workers,
			Snapshots: store, SnapshotInterval: meshSnapshotInterval,
		})
		for _, mp := range pairs {
			if mp.i != i && mp.j != i {
				continue
			}
			ctl, err := continuous.NewWithMetricShared(pairsim.New(mp.pair, cache), prefBound, continuous.MetricDistance, caps)
			if err != nil {
				return nil, err
			}
			// The lower-index agent initiates as side A; the other serves.
			peer := agentd.Peer{Ctl: ctl, Workloads: cfg.workloads(mp, t)}
			if mp.i == i {
				peer.Name, peer.Side, peer.Dial = agentd.AgentName(mp.j), nexit.SideA, listeners[mp.j].Dial
			} else {
				peer.Name, peer.Side = agentd.AgentName(mp.i), nexit.SideB
			}
			if err := a.AddPeer(peer); err != nil {
				return nil, err
			}
		}
		agents[i] = a
		go func(ln net.Listener) { serveErr <- a.Serve(ln) }(listeners[i])
	}
	run := &meshRun{setup: time.Since(start), pairs: len(pairs), reports: pairReports{}}

	begin := time.Now()
	for epoch := 0; epoch < epochs; epoch++ {
		var (
			wg sync.WaitGroup
			mu sync.Mutex
		)
		for i, a := range agents {
			wg.Add(1)
			go func(i int, a *agentd.Agent) {
				defer wg.Done()
				reps, err := a.RunEpoch(context.Background(), epoch)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					run.epochErrs = append(run.epochErrs, fmt.Errorf("agent %s epoch %d: %w", a.Name(), epoch, err))
				}
				for peer, rep := range reps {
					key := [2]int{i, nameToIdx[peer]}
					run.reports[key] = append(run.reports[key], rep)
				}
			}(i, a)
		}
		wg.Wait()
	}
	run.window = time.Since(begin)

	// An initiator's RunEpoch returns with the session's last frame; the
	// responder may still be settling its counters, so freeze statuses
	// only once no session is active.
	for deadline := time.Now().Add(quiesceWait); ; {
		active := int64(0)
		for _, a := range agents {
			active += a.Status().SessionsActive
		}
		if active == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	for i := range len(isps) {
		if a := agents[i]; a != nil {
			run.statuses = append(run.statuses, a.Status())
		}
	}
	teardown()
	err = filepath.WalkDir(stateDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			run.snapBytes += info.Size()
		}
		return err
	})
	return run, err
}

// judgeMesh compares a pass with the serial reference: it returns the
// sessions attempted and the failed sessions plus the pairs whose
// outcome differs from the reference.
func judgeMesh(run *meshRun, ref pairReports) (attempted, failed int, why string) {
	attempted = len(ref) * meshEpochs
	for _, st := range run.statuses {
		failed += int(st.SessionsFailed)
	}
	// An epoch error without a failed session (a listener fault, say)
	// still counts once.
	failed = max(failed, len(run.epochErrs))
	if failed > 0 {
		why = fmt.Sprintf("%d sessions failed: %v", failed, errors.Join(run.epochErrs...))
	}
	for key, want := range ref {
		if !reflect.DeepEqual(run.reports[key], want) {
			failed++
			if why == "" {
				why = fmt.Sprintf("pair %v differs from the serial reference", key)
			}
		}
	}
	return attempted, min(failed, attempted), why
}

// countMesh records a traced pass's layer counters from the agents'
// statuses and the initiators' epoch reports.
func countMesh(t *tracer, run *meshRun) error {
	var lat telemetry.HistogramSnapshot
	haveLat := false
	for _, st := range run.statuses {
		t.count("agentd.sessions", float64(st.SessionsInitiated))
		t.count("agentd.sessions_failed", float64(st.SessionsFailed))
		t.count("agentd.dial_retries", float64(st.DialRetries))
		t.count("agentd.resyncs", float64(st.Resyncs))
		t.count("snapshot.saves", float64(st.SnapshotSaves))
		t.count("nexitwire.frames", float64(st.Wire.FramesSent))
		t.count("nexitwire.bytes", float64(st.Wire.BytesSent))
		t.count("nexitwire.hello_s", float64(st.Wire.HelloUs)/1e6)
		t.count("nexitwire.prefs_s", float64(st.Wire.PrefsUs)/1e6)
		t.count("nexitwire.propose_s", float64(st.Wire.ProposeUs)/1e6)
		t.count("nexitwire.commit_s", float64(st.Wire.CommitUs)/1e6)
		for _, p := range st.Peers {
			if !p.Initiator {
				continue // each session is counted once, on its initiating side
			}
			t.count("agentd.rounds", float64(p.Rounds))
			if p.Latency == nil {
				continue
			}
			if !haveLat {
				lat, haveLat = *p.Latency, true
			} else if err := lat.Merge(*p.Latency); err != nil {
				return err
			}
		}
	}
	if haveLat {
		t.count("agentd.session_p50_s", lat.Quantile(0.5))
		t.count("agentd.session_p99_s", lat.Quantile(0.99))
	}
	for _, reps := range run.reports {
		for _, rep := range reps {
			t.count("continuous.flows_observed", float64(rep.Observed))
			t.count("continuous.flows_negotiated", float64(rep.Negotiated))
			t.count("continuous.flows_moved", float64(rep.Moved))
		}
	}
	t.count("snapshot.bytes", float64(run.snapBytes))
	return nil
}

// pipeListener is an in-memory net.Listener over net.Pipe: the mesh's
// sessions run the full listener and dialer path without sockets.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		client.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
