package plot

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func testDataset(t *testing.T) *experiments.Dataset {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 12
	ds, err := experiments.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testOpts() (experiments.Options, experiments.BandwidthOptions) {
	// MaxPairs keeps every curve under stats.DefaultSketchCap samples:
	// the flow-level Figure 6 pools thousands of flow samples per pair,
	// and the NDJSON fold's digests compact beyond the cap.
	opt := experiments.Options{MaxPairs: 4, Seed: 1, Workers: 2}
	return opt, experiments.BandwidthOptions{Options: opt, Workload: traffic.Gravity, MaxFailures: 8}
}

// record is one streamed result with the experiment that produced it.
type record struct {
	exp string
	idx int
	r   any
}

// collect returns a driver sink appending exp's records to recs.
func collect[R any](recs *[]record, exp string) func(int, *R) error {
	return func(idx int, r *R) error {
		*recs = append(*recs, record{exp, idx, r})
		return nil
	}
}

// runRecords runs the six streamed experiments in nexitsim's order and
// returns their records, plus one summary line per experiment (a digest
// of its record count, enough to exercise the summary merge).
func runRecords(t *testing.T, ds *experiments.Dataset, opt experiments.Options, bopt experiments.BandwidthOptions) (recs []record, summaries [][]byte) {
	t.Helper()
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(experiments.DistanceStream(ds, opt, collect[experiments.DistancePairResult](&recs, "distance")))
	_, err := experiments.BandwidthStream(ds, bopt, collect[experiments.BandwidthCaseResult](&recs, "bandwidth"))
	check(err)
	check(experiments.DistanceCheatStream(ds, opt, collect[experiments.CheatPairResult](&recs, "distance-cheat")))
	check(experiments.DestinationStream(ds, opt, collect[experiments.DestinationPairResult](&recs, "destination")))
	check(experiments.ScalabilityStream(ds, opt, ScalabilityFractions, collect[experiments.ScalabilityPairResult](&recs, "scalability")))
	_, err = experiments.StabilityStream(ds, bopt, collect[experiments.StabilityCaseResult](&recs, "stability"))
	check(err)

	var order []string
	n := map[string]int{}
	for _, rec := range recs {
		if n[rec.exp] == 0 {
			order = append(order, rec.exp)
		}
		n[rec.exp]++
	}
	for _, exp := range order {
		d := stats.NewDigest()
		d.Add(float64(n[exp]))
		b, err := json.Marshal(map[string]any{
			"experiment": exp, "results": n[exp],
			"series":  map[string]string{"n": d.Summary()},
			"digests": map[string]*stats.Digest{"n": d},
		})
		check(err)
		summaries = append(summaries, b)
	}
	return recs, summaries
}

// recordLines marshals records into nexitsim -stream envelopes.
func recordLines(t *testing.T, recs []record) [][]byte {
	t.Helper()
	var lines [][]byte
	for _, rec := range recs {
		b, err := json.Marshal(map[string]any{"experiment": rec.exp, "index": rec.idx, "data": rec.r})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	return lines
}

func addLines(t *testing.T, f *Fold, lines [][]byte) {
	t.Helper()
	for _, line := range lines {
		if err := f.AddLine(line); err != nil {
			t.Fatal(err)
		}
	}
}

func render(t *testing.T, f *Fold, fig string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Render(&buf, fig); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// diffLine fails with the first line where two renderings diverge —
// far more readable than dumping both documents.
func diffLine(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d diverges:\n  got  %q\n  want %q", what, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: lengths diverge: got %d lines, want %d", what, len(g), len(w))
}

// The NDJSON fold (nexitplot's bounded digests, records through a JSON
// round trip) must render every section byte for byte like the
// in-process fold nexitsim's figure mode uses (exact digests, records
// as produced) while no curve outgrows the sketch capacity: floats
// round-trip exactly through encoding/json, grid counts are integers,
// and an uncompacted sketch summarizes exactly.
func TestFoldNDJSONMatchesInProcess(t *testing.T) {
	opt, bopt := testOpts()
	recs, _ := runRecords(t, testDataset(t), opt, bopt)
	inProcess := NewFold(16, math.MaxInt)
	for _, rec := range recs {
		if err := inProcess.AddRecord(rec.r); err != nil {
			t.Fatal(err)
		}
	}
	for key, c := range inProcess.curves {
		if n := c.dig.Stream.N(); n > stats.DefaultSketchCap {
			t.Fatalf("curve %v holds %d samples, past the sketch capacity this parity needs", key, n)
		}
	}
	ndjson := NewFold(16, stats.DefaultSketchCap)
	addLines(t, ndjson, recordLines(t, recs))

	want := render(t, inProcess, "all")
	for _, title := range []string{"Figure 4a", "Figure 11", "interconnections", "4 separate groups",
		"biggest flows", "destination-based", "cycles of influence"} {
		if !strings.Contains(want, title) {
			t.Fatalf("in-process render lacks the %q section", title)
		}
	}
	diffLine(t, "ndjson vs in-process", render(t, ndjson, "all"), want)
}

// Any line-split of a run folds to the same bytes as the whole run,
// shards fed in any order — the CI merge-parity contract — extras and
// summary lines included.
func TestFoldShardParity(t *testing.T) {
	opt, bopt := testOpts()
	recs, summaries := runRecords(t, testDataset(t), opt, bopt)
	lines := append(recordLines(t, recs), summaries...)

	whole := NewFold(16, stats.DefaultSketchCap)
	addLines(t, whole, lines)
	wantOut := render(t, whole, "all")
	for _, title := range []string{"Streaming summaries", "cycles of influence"} {
		if !strings.Contains(wantOut, title) {
			t.Fatalf("whole-run render lacks %q", title)
		}
	}

	// Interleave NR%2, then feed the odd shard first.
	sharded := NewFold(16, stats.DefaultSketchCap)
	for _, keep := range []int{1, 0} {
		for i, line := range lines {
			if i%2 == keep {
				addLines(t, sharded, [][]byte{line})
			}
		}
	}
	diffLine(t, "sharded vs whole", render(t, sharded, "all"), wantOut)
}

// Lines from unknown experiments are skipped and counted, never fatal.
func TestFoldUnknownExperiment(t *testing.T) {
	f := NewFold(8, 0)
	if err := f.AddLine([]byte(`{"experiment":"hyperspace","index":0,"data":{"x":1}}`)); err != nil {
		t.Fatalf("unknown experiment should not error: %v", err)
	}
	if f.Unknown != 1 {
		t.Fatalf("Unknown = %d, want 1", f.Unknown)
	}
	if err := f.AddLine([]byte(`   `)); err != nil {
		t.Fatalf("blank line should fold to nothing: %v", err)
	}
	if err := f.AddLine([]byte(`{broken`)); err == nil {
		t.Fatal("corrupt JSON must error")
	}
}

// Lines that parse as JSON but cannot be folded are rejected with a
// labelled error and leave the fold unchanged.
func TestFoldRejectsMalformedLines(t *testing.T) {
	for _, tc := range []struct{ name, line, want string }{
		{"null distance data", `{"experiment":"distance","data":null}`, "null data"},
		{"null unknown data", `{"experiment":"hyperspace","index":3,"data":null}`, "null data"},
		{"wrong record shape", `{"experiment":"bandwidth","data":[1,2]}`, "bandwidth record"},
		{"short gain shares", `{"experiment":"scalability","data":{"pair":"a-b","gain_shares":[1],"flow_shares":[0.1,0.2,0.3,0.4,1]}}`, "1 gain shares"},
		{"long flow shares", `{"experiment":"scalability","data":{"pair":"a-b","gain_shares":[1,1,1,1,1],"flow_shares":[0,0,0,0,0,0]}}`, "6 flow shares"},
		{"null digest", `{"experiment":"distance","results":1,"digests":{"gain":null}}`, "digest"},
		{"digest counts disagree", `{"experiment":"distance","results":1,"digests":{"gain":{"stream":{"n":2,"sum":1,"min":0,"max":1}}}}`, "digest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFold(8, 0)
			err := f.AddLine([]byte(tc.line))
			if err == nil || !strings.HasPrefix(err.Error(), "plot: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("AddLine(%s) = %v, want a plot: error mentioning %q", tc.line, err, tc.want)
			}
			if len(f.count) != 0 || len(f.curves) != 0 || len(f.summaries) != 0 {
				t.Fatalf("rejected line changed the fold")
			}
		})
	}
}

// A distance record without flow samples renders the Figure 6 fraction
// line as 100.0%, like a CDF over an empty sample set, not NaN%.
func TestFoldEmptyFlowSet(t *testing.T) {
	f := NewFold(8, 0)
	if err := f.AddRecord(&experiments.DistancePairResult{Pair: "a-b", Interconnections: 2}); err != nil {
		t.Fatal(err)
	}
	out := render(t, f, "6")
	if want := "flows gaining >20%: 100.0%   >50%: 100.0%"; !strings.Contains(out, want) {
		t.Fatalf("Figure 6 with no flow samples:\n%s\nwant the line %q", out, want)
	}
}

// An experiment that ran but delivered no record still renders its
// selected sections (with empty tables), and only those.
func TestRenderSelection(t *testing.T) {
	f := NewFold(4, 0)
	f.Ran("bandwidth")
	out := render(t, f, "8")
	if !strings.Contains(out, "Figure 8") || strings.Contains(out, "Figure 7") {
		t.Fatalf("-fig 8 rendered:\n%s", out)
	}
	if out := render(t, f, "4"); out != "" {
		t.Fatalf("-fig 4 without distance records rendered:\n%s", out)
	}
	if err := f.AddLine([]byte(`{"experiment":"ablation","results":7}`)); err != nil {
		t.Fatal(err)
	}
	if out := render(t, f, "extras"); strings.Contains(out, "preference range ablation") {
		t.Fatalf("a streamed line made the in-process-only ablation render:\n%s", out)
	}
	if err := f.Render(&bytes.Buffer{}, "12"); err == nil {
		t.Fatal("Render accepted -fig 12")
	}
}

func TestCheckFlags(t *testing.T) {
	for _, fig := range []string{"all", "4", "5", "6", "7", "8", "9", "10", "11", "extras"} {
		if err := CheckFlags(fig, 2); err != nil {
			t.Errorf("CheckFlags(%q, 2) = %v", fig, err)
		}
	}
	for _, fig := range []string{"", "12", "3", "4a", "ALL", "ablation"} {
		err := CheckFlags(fig, 16)
		if err == nil || !strings.HasPrefix(err.Error(), "-fig ") {
			t.Errorf("CheckFlags(%q, 16) = %v, want a labelled error", fig, err)
		}
	}
	if err := CheckFlags("all", 1); err == nil || !strings.HasPrefix(err.Error(), "-points ") {
		t.Errorf("CheckFlags(all, 1) = %v, want a labelled error", err)
	}
	if !Needs("extras", "ablation") || Needs("4", "bandwidth") || !Needs("all", "stability") || !Needs("11", "bandwidth") {
		t.Error("Needs disagrees with the layout")
	}
}
