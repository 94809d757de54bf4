package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mesh"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must honour:
// every metric it lists, by name and unit.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsPrintEveryMetric runs each workload once, untraced and
// traced, on a 12-ISP dataset and checks that every metric
// BENCHMARK.json names is printed with its unit, both as a text line and
// in the final JSON result.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range []string{"distance", "bandwidth", "mesh"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w, "--seed", "1", "--seconds", "0", "--trace", trace,
					"--isps", "12", "--state-dir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				text := strings.Join(lines[:len(lines)-1], "\n")
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(text, m.Name+" ") || !strings.Contains(text, " "+m.Unit) {
						t.Errorf("metric %s not printed as a text line with unit %s", m.Name, m.Unit)
					}
				}
				if !strings.Contains(text, "failed_frac") {
					t.Error("failed_frac not printed")
				}
			})
		}
	}
}

// TestGateFiresOnCorruptRecord corrupts one record of an otherwise
// identical pass and checks that each part of the distance gate counts
// it: the first-pass comparison, the no-loss invariant and the pinned
// digest.
func TestGateFiresOnCorruptRecord(t *testing.T) {
	cfg := benchConfig{workload: "distance", seed: 1, isps: 12, workers: 2}
	ds, err := loadDataset(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pass := func(corrupt func(r *experiments.DistancePairResult)) *stream {
		st := newStream()
		err := experiments.DistanceStream(ds, cfg.options(), func(i int, r *experiments.DistancePairResult) error {
			if i == 3 && corrupt != nil {
				corrupt(r)
			}
			return st.add(r, r.Pair, distanceHolds(r))
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	gate := &recordGate{}
	clean := pass(nil)
	if _, failed, why := gate.judge(clean); failed != 0 {
		t.Fatalf("clean first pass failed: %s", why)
	}
	if _, failed, why := gate.judge(pass(nil)); failed != 0 {
		t.Fatalf("clean second pass failed: %s", why)
	}
	if _, failed, _ := gate.judge(pass(func(r *experiments.DistancePairResult) { r.GainNeg += 1e-6 })); failed != 1 {
		t.Errorf("changed record: %d failed, want 1", failed)
	}
	if _, failed, _ := gate.judge(pass(func(r *experiments.DistancePairResult) { r.IndNegA = -1 })); failed != 2 {
		t.Errorf("record with a losing ISP: %d failed, want 2 (differs and breaks the invariant)", failed)
	}

	pinned := &recordGate{pinned: &pin{records: len(clean.recs), digest: clean.digest()}}
	if _, failed, why := pinned.judge(pass(nil)); failed != 0 {
		t.Fatalf("pinned clean pass failed: %s", why)
	}
	attempted, failed, _ := pinned.judge(pass(func(r *experiments.DistancePairResult) { r.Pair += "x" }))
	if failed != attempted {
		t.Errorf("pinned digest mismatch: %d of %d failed, want all", failed, attempted)
	}
}

// TestMeshGateFiresOnCorruptReport checks that a mesh pass matches the
// serial reference and that one altered epoch report fails it.
func TestMeshGateFiresOnCorruptReport(t *testing.T) {
	cfg := benchConfig{workload: "mesh", seed: 1, isps: 12, workers: 2}
	ref, err := meshReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runMesh(cfg, t.TempDir(), meshEpochs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed, why := judgeMesh(run, ref); failed != 0 {
		t.Fatalf("clean mesh failed: %s", why)
	}
	for _, reps := range run.reports {
		reps[meshEpochs-1].Moved++
		break
	}
	if _, failed, _ := judgeMesh(run, ref); failed != 1 {
		t.Errorf("altered report: %d failed, want 1", failed)
	}
}

// TestMeshReferenceIsRunSerial pins the benchmark's serial reference to
// mesh.RunSerial: at seed 1 (the dataset seed, so mesh.Options.Seed
// roots the same drift streams) both negotiate the same epochs pair by
// pair.
func TestMeshReferenceIsRunSerial(t *testing.T) {
	cfg := benchConfig{workload: "mesh", seed: 1, isps: 12, workers: 2}
	ref, err := meshReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := mesh.RunSerial(mesh.Options{NumISPs: cfg.isps, Seed: 1, Epochs: meshEpochs, Volatility: meshVolatility})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Pairs) != len(ref) {
		t.Fatalf("%d pairs in mesh.RunSerial, %d in the reference", len(serial.Pairs), len(ref))
	}
	for _, p := range serial.Pairs {
		if !reflect.DeepEqual(ref[[2]int{p.I, p.J}], p.Reports) {
			t.Errorf("pair (%d,%d) differs from mesh.RunSerial", p.I, p.J)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/nexit.(*negotiation).scanMaxSumRef":                                       "nexit",
		"repro/internal/simplex.(*tableau).pivot":                                                 "simplex",
		"repro/internal/runner.ForEachPair[go.shape.*uint8,go.shape.*repro/internal/gen.x].func1": "runner",
		"repro/internal/stability.Run":                                                            "other",
		"runtime.mallocgc":                                                                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                                                 "runtime",
		"crypto/sha256.block":                                                                     "stdlib",
		"main.(*recorder).end":                                                                    "perfbench",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
