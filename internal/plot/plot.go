// Package plot owns the paper's figure layout: which sections each
// nexitsim -fig value prints, their titles, axes, curve order and
// decoration lines. A Fold accumulates experiment records — in process
// from nexitsim's figure mode, or as nexitsim -stream NDJSON in
// cmd/nexitplot — and renders the figure tables; the package also
// renders live mesh progress from agentd status snapshots (DESIGN.md
// §10). Every curve is an online fixed-grid CDF (the figure axes are
// fixed per panel) plus a digest for the per-curve summary line.
//
// The digests' sketch capacity is the fold's one setting. nexitsim
// keeps every sample, so its summary lines are exact. cmd/nexitplot
// bounds each sketch at stats.DefaultSketchCap points, so a fold over a
// million records holds a few kilobytes per curve; up to that many
// samples per curve its summaries are exact too. Because GridCDF counts
// are integers and digest sketches canonicalize before rendering,
// folding shards of a run in any order produces the same bytes as
// folding the whole run — the merge-parity contract CI pins.
package plot

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/stability"
	"repro/internal/stats"
)

// ScalabilityFractions is the §6 traffic-fraction axis: nexitsim runs
// the scalability sweep over it, and every scalability record carries
// one gain share and one flow share per fraction.
var ScalabilityFractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// AblationBounds are the preference bounds P the §5 ablation lists.
var AblationBounds = []int{1, 2, 3, 5, 10, 20, 50}

// section is one block of the figure output: the -fig value selecting
// it (every section is also part of "all"), the experiment whose
// records it renders, and the renderer.
type section struct {
	fig, exp string
	render   func(printer)
}

func (s section) selected(fig string) bool { return fig == "all" || fig == s.fig }

// layout lists the sections in -fig all order. "ablation" is not a
// streamed experiment: only an in-process caller supplies it, through
// SetAblation.
var layout = []section{
	{"4", "distance", func(p printer) {
		p.section("Figure 4a — distance: total gain over default routing (CDF of ISP pairs)")
		fmt.Fprintf(p, "pairs: %d\n", p.f.count["distance"])
		p.series("4a", "negotiated", "optimal")
		p.section("Figure 4b — distance: individual ISP gain (CDF of ISPs)")
		p.series("4b", "negotiated", "optimal")
		fmt.Fprintf(p, "ISPs losing under global optimum: %d/%d (paper: roughly a third)\n",
			p.f.indLosers, 2*p.f.count["distance"])
	}},
	{"5", "distance", func(p printer) {
		p.section("Figure 5 — flow-local strategies: total gain (CDF of ISP pairs)")
		p.series("5", "flow-both-better", "flow-Pareto")
	}},
	{"6", "distance", func(p printer) {
		p.section("Figure 6 — distance: per-flow gain (CDF of flows, all pairs pooled)")
		p.series("6", "negotiated", "optimal")
		n := p.f.n("6", "negotiated")
		fmt.Fprintf(p, "flows gaining >20%%: %.1f%%   >50%%: %.1f%% (paper: 7%% and 1%%)\n",
			100*(1-frac(p.f.flowLE20, n)), 100*(1-frac(p.f.flowLE50, n)))
	}},
	{"7", "bandwidth", func(p printer) {
		p.section("Figure 7 — bandwidth: MEL relative to optimal after a failure (CDF of failure cases)")
		fmt.Fprintf(p, "failure cases: %d\n", p.f.count["bandwidth"])
		fmt.Fprintln(p, "upstream ISP:")
		p.series("7.up", "negotiated", "default")
		fmt.Fprintln(p, "downstream ISP:")
		p.series("7.down", "negotiated", "default")
	}},
	{"8", "bandwidth", func(p printer) {
		p.section("Figure 8 — unilateral upstream optimization: downstream MEL vs default (CDF)")
		p.series("8", "upstream-optimized")
		fmt.Fprintf(p, "cases where downstream MEL more than doubles: %.1f%% (paper: ~10%%)\n",
			100*(1-frac(p.f.uniLE2, p.f.n("8", "upstream-optimized"))))
	}},
	{"9", "bandwidth", func(p printer) {
		p.section("Figure 9 — diverse criteria: upstream bandwidth vs downstream distance")
		fmt.Fprintln(p, "upstream ISP (MEL ratio to optimal):")
		p.series("9.up", "negotiated", "default")
		fmt.Fprintln(p, "downstream ISP (distance gain over default):")
		p.series("9.down", "negotiated")
	}},
	{"10", "distance-cheat", func(p printer) {
		p.section("Figure 10a — cheating (distance): total gain (CDF of ISP pairs)")
		fmt.Fprintf(p, "pairs: %d\n", p.f.count["distance-cheat"])
		p.series("10a", "both truthful", "one cheater")
		p.section("Figure 10b — cheating (distance): individual gain (CDF of ISPs)")
		p.series("10b", "both truthful", "cheater", "truthful")
		delta := p.f.curve("10", "cheater delta").dig
		fmt.Fprintf(p, "paired effect of cheating on the cheater itself: mean %+.2f%%, hurts in %.0f%% of pairs\n",
			delta.Sketch.Mean(), 100*frac(p.f.deltaLEneg, p.f.n("10", "cheater delta")))
	}},
	{"11", "bandwidth", func(p printer) {
		p.section("Figure 11 — cheating (bandwidth): MEL ratio to optimal (CDF of failure cases)")
		fmt.Fprintln(p, "upstream ISP (the cheater):")
		p.series("11.up", "both truthful", "one cheater", "default")
		fmt.Fprintln(p, "downstream ISP (truthful):")
		p.series("11.down", "both truthful", "one cheater", "default")
	}},
	// The analyses the paper describes in text but omits from figures
	// for space.
	{"extras", "distance", func(p printer) {
		p.section("Extra — negotiated gain vs number of interconnections (§5.1 text)")
		counts := make([]int, 0, len(p.f.gainByIC))
		for k := range p.f.gainByIC {
			counts = append(counts, k)
		}
		sort.Ints(counts)
		for _, k := range counts {
			fmt.Fprintf(p, "  %2d interconnections: %s\n", k, p.f.gainByIC[k].StableSummary())
		}
		p.section("Extra — fraction of flows moved off the default (§5.1 text, ~20%)")
		fmt.Fprintf(p, "  %s\n", p.summary("extras", "non-default"))
		p.section("Extra — negotiating in 4 separate groups (§5.1 text)")
		fmt.Fprintf(p, "  whole table: %s\n", p.summary("4a", "negotiated"))
		fmt.Fprintf(p, "  4 groups:    %s\n", p.summary("extras", "4 groups"))
	}},
	{"extras", "ablation", func(p printer) {
		p.section("Extra — preference range ablation (§5 text: beyond [-10,10] no gain)")
		for _, b := range AblationBounds {
			fmt.Fprintf(p, "  P=%-3d median total gain: %.2f%%\n", b, p.f.ablation[b])
		}
	}},
	{"extras", "scalability", func(p printer) {
		p.section("Extra — negotiating only the biggest flows (§6 scalability)")
		fmt.Fprintf(p, "  pairs: %d (gravity flow sizes)\n", p.f.count["scalability"])
		for i, x := range ScalabilityFractions {
			var flows, gain float64
			if p.f.count["scalability"] > 0 {
				flows = p.f.curve("scalability.flows", strconv.Itoa(i)).dig.Sketch.Median()
				gain = p.f.curve("scalability.gain", strconv.Itoa(i)).dig.Sketch.Median()
			}
			fmt.Fprintf(p, "  top flows covering %3.0f%% of traffic = %4.1f%% of flows -> %3.0f%% of the full gain\n",
				100*x, 100*flows, 100*gain)
		}
	}},
	{"extras", "destination", func(p printer) {
		p.section("Extra — destination-based routing (footnote 2)")
		fmt.Fprintf(p, "  pairs: %d; gains measured against each regime's own default\n", p.f.count["destination"])
		fmt.Fprintf(p, "  source-destination routing: %s\n", p.summary("destination", "src-dst"))
		fmt.Fprintf(p, "  destination-based routing:  %s\n", p.summary("destination", "dst-only"))
	}},
	{"extras", "stability", func(p printer) {
		o := p.f.outcomes
		p.section("Extra — cycles of influence under reactive unilateral routing (§1/§2.2)")
		fmt.Fprintf(p, "  failure cases: %d\n", p.f.count["stability"])
		fmt.Fprintf(p, "  reactive best-response dynamics: %d converged, %d oscillated, %d exhausted\n",
			o[stability.Converged], o[stability.Oscillated], o[stability.Exhausted])
		fmt.Fprintf(p, "  negotiation: always terminates (by construction)\n")
		fmt.Fprintf(p, "  reactive end-state worst MEL:   %s\n", p.summary("stability", "reactive"))
		fmt.Fprintf(p, "  negotiated worst MEL:           %s\n", p.summary("stability", "negotiated"))
	}},
}

// CheckFlags returns a labelled error unless fig is a -fig value ("all"
// or one of the sections' figure names) and a table of points rows can
// span its axis, which takes at least its two end points.
func CheckFlags(fig string, points int) error {
	figs := []string{"all"}
	for _, s := range layout {
		if figs[len(figs)-1] != s.fig {
			figs = append(figs, s.fig)
		}
	}
	if !slices.Contains(figs, fig) {
		return fmt.Errorf("-fig %q: unknown figure (want one of %s)", fig, strings.Join(figs, ", "))
	}
	if points < 2 {
		return fmt.Errorf("-points %d: need at least 2 points per series", points)
	}
	return nil
}

// Needs reports whether selection fig renders a section built from
// experiment exp's records.
func Needs(fig, exp string) bool {
	for _, s := range layout {
		if s.exp == exp && s.selected(fig) {
			return true
		}
	}
	return false
}

// axis is one panel's fixed x-axis. The fold counts each sample into
// its panel's grid on arrival, so the axis is known before any record.
type axis struct {
	label    string
	min, max float64
}

var axes = map[string]axis{
	"4a":      {"% gain", 0, 15},
	"4b":      {"% gain", -20, 40},
	"5":       {"% gain", 0, 15},
	"6":       {"% gain", 0, 60},
	"7.up":    {"load ratio", 0, 6},
	"7.down":  {"load ratio", 0, 6},
	"8":       {"load ratio", 1, 6},
	"9.up":    {"load ratio", 0, 6},
	"9.down":  {"% gain", 0, 80},
	"10a":     {"% gain", 0, 15},
	"10b":     {"% gain", 0, 15},
	"11.up":   {"load ratio", 0, 6},
	"11.down": {"load ratio", 0, 6},
}

// curve pairs the two constant-memory views of one figure line: the
// grid CDF renders the table, the digest renders the summary line.
// Lines outside the figure panels have no axis and keep only a digest.
type curve struct {
	grid *stats.GridCDF
	dig  *stats.Digest
}

// Series renders the curve's table points; it satisfies
// stats.SeriesSource so stats.FormatSeries accepts curves directly.
func (c *curve) Series(min, max float64, n int) []stats.Point {
	return c.grid.Series(min, max, n)
}

func (c *curve) add(vs ...float64) {
	for _, v := range vs {
		if c.grid != nil {
			c.grid.Add(v)
		}
		c.dig.Add(v)
	}
}

// summaryAgg merges one experiment's streamed summary lines across
// shards: digests merge exactly; the legacy series strings only
// survive when a single shard contributed them.
type summaryAgg struct {
	results int
	lines   int
	digests map[string]*stats.Digest
	raw     map[string]string
}

// Fold is the figure accumulator. Feed it records in process via
// AddRecord, or NDJSON lines (records and summary lines, from one run
// or from many shards of the same run) via AddLine or ReadLines, then
// Render the figure tables.
type Fold struct {
	points, sketchCap int
	curves            map[[2]string]*curve
	// count is the number of records folded per experiment present in
	// the input; an experiment marked by Ran is present at 0, and its
	// selected sections render with empty tables.
	count    map[string]int
	gainByIC map[int]*stats.Digest // negotiated gain by interconnection count
	ablation map[int]float64
	// Integer counts behind the decoration lines.
	indLosers, flowLE20, flowLE50, uniLE2, deltaLEneg int
	outcomes                                          [3]int // by stability.Outcome

	summaries map[string]*summaryAgg
	// Unknown counts lines for experiments this fold does not
	// understand (newer producers); they are skipped, not fatal.
	Unknown int
}

// NewFold returns an empty fold rendering points-row series whose
// summary digests hold at most sketchCap points each (0 selects
// stats.DefaultSketchCap; math.MaxInt keeps every sample, making every
// summary line exact).
func NewFold(points, sketchCap int) *Fold {
	return &Fold{
		points:    points,
		sketchCap: sketchCap,
		curves:    map[[2]string]*curve{},
		count:     map[string]int{},
		gainByIC:  map[int]*stats.Digest{},
		summaries: map[string]*summaryAgg{},
	}
}

func (f *Fold) digest() *stats.Digest {
	return &stats.Digest{Sketch: stats.NewQuantileSketch(f.sketchCap)}
}

func (f *Fold) curve(panel, name string) *curve {
	key := [2]string{panel, name}
	c, ok := f.curves[key]
	if !ok {
		c = &curve{dig: f.digest()}
		if ax, ok := axes[panel]; ok {
			c.grid = stats.NewGridCDF(ax.min, ax.max, f.points)
		}
		f.curves[key] = c
	}
	return c
}

// n is the number of samples in a curve, NaNs excluded as a CDF would.
func (f *Fold) n(panel, name string) int { return int(f.curve(panel, name).dig.Stream.N()) }

// Ran marks experiment exp as present even if it delivers no record,
// as its summary line does in a stream.
func (f *Fold) Ran(exp string) { f.count[exp] += 0 }

// SetAblation supplies the preference-range ablation (median total
// gain per bound P), the one input that is not a record stream.
func (f *Fold) SetAblation(medians map[int]float64) {
	f.ablation = medians
	f.Ran("ablation")
}

// ndjsonLine is the superset of the two line shapes nexitsim emits: a
// record envelope (Data set) or an experiment summary (Data absent).
type ndjsonLine struct {
	Experiment string                   `json:"experiment"`
	Data       json.RawMessage          `json:"data"`
	Results    int                      `json:"results"`
	Series     map[string]string        `json:"series"`
	Digests    map[string]*stats.Digest `json:"digests"`
}

// decoders maps each streamed experiment to its record type.
var decoders = map[string]func(json.RawMessage) (any, error){
	"distance":       decode[experiments.DistancePairResult],
	"bandwidth":      decode[experiments.BandwidthCaseResult],
	"distance-cheat": decode[experiments.CheatPairResult],
	"destination":    decode[experiments.DestinationPairResult],
	"scalability":    decode[experiments.ScalabilityPairResult],
	"stability":      decode[experiments.StabilityCaseResult],
}

func decode[R any](data json.RawMessage) (any, error) {
	r := new(R)
	return r, json.Unmarshal(data, r)
}

// ReadLines folds every NDJSON line of r. Call once per shard file;
// order across shards does not matter.
func (f *Fold) ReadLines(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if err := f.AddLine(sc.Bytes()); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

// AddLine folds one NDJSON line (a record envelope or a summary line).
// Blank lines are ignored; records of unknown experiments are counted
// in Unknown. Every error is labelled "plot: ".
func (f *Fold) AddLine(line []byte) error {
	if len(bytes.TrimLeft(line, " \t\r")) == 0 {
		return nil
	}
	var l ndjsonLine
	if err := json.Unmarshal(line, &l); err != nil {
		return fmt.Errorf("plot: %w", err)
	}
	if l.Data == nil {
		return f.addSummary(&l)
	}
	if string(l.Data) == "null" {
		return fmt.Errorf("plot: %q record has null data", l.Experiment)
	}
	dec, ok := decoders[l.Experiment]
	if !ok {
		f.Unknown++
		return nil
	}
	r, err := dec(l.Data)
	if err != nil {
		return fmt.Errorf("plot: %s record: %w", l.Experiment, err)
	}
	return f.AddRecord(r)
}

// AddRecord folds one experiment record: a pointer to one of the
// experiments package's per-pair or per-case result types.
func (f *Fold) AddRecord(r any) error {
	switch r := r.(type) {
	case *experiments.DistancePairResult:
		f.count["distance"]++
		f.curve("4a", "negotiated").add(r.GainNeg)
		f.curve("4a", "optimal").add(r.GainOpt)
		f.curve("4b", "negotiated").add(r.IndNegA, r.IndNegB)
		f.curve("4b", "optimal").add(r.IndOptA, r.IndOptB)
		for _, g := range [2]float64{r.IndOptA, r.IndOptB} {
			if g < 0 {
				f.indLosers++
			}
		}
		f.curve("5", "flow-both-better").add(r.GainBothBetter)
		f.curve("5", "flow-Pareto").add(r.GainPareto)
		f.curve("6", "negotiated").add(r.FlowGainNeg...)
		f.curve("6", "optimal").add(r.FlowGainOpt...)
		for _, g := range r.FlowGainNeg {
			if g <= 20 {
				f.flowLE20++
			}
			if g <= 50 {
				f.flowLE50++
			}
		}
		ic, ok := f.gainByIC[r.Interconnections]
		if !ok {
			ic = f.digest()
			f.gainByIC[r.Interconnections] = ic
		}
		ic.Add(r.GainNeg)
		f.curve("extras", "non-default").add(r.NonDefaultFraction)
		f.curve("extras", "4 groups").add(r.GainGroup4)
	case *experiments.BandwidthCaseResult:
		f.count["bandwidth"]++
		f.curve("7.up", "negotiated").add(r.UpNeg)
		f.curve("7.up", "default").add(r.UpDef)
		f.curve("7.down", "negotiated").add(r.DownNeg)
		f.curve("7.down", "default").add(r.DownDef)
		f.curve("8", "upstream-optimized").add(r.UnilateralDownRatio)
		if r.UnilateralDownRatio <= 2 {
			f.uniLE2++
		}
		f.curve("9.up", "negotiated").add(r.DiverseUpNeg)
		f.curve("9.up", "default").add(r.UpDef)
		f.curve("9.down", "negotiated").add(r.DiverseDownGain)
		f.curve("11.up", "both truthful").add(r.UpNeg)
		f.curve("11.up", "one cheater").add(r.CheatUp)
		f.curve("11.up", "default").add(r.UpDef)
		f.curve("11.down", "both truthful").add(r.DownNeg)
		f.curve("11.down", "one cheater").add(r.CheatDown)
		f.curve("11.down", "default").add(r.DownDef)
	case *experiments.CheatPairResult:
		f.count["distance-cheat"]++
		f.curve("10a", "both truthful").add(r.TotalTruthful)
		f.curve("10a", "one cheater").add(r.TotalCheat)
		f.curve("10b", "both truthful").add(r.IndTruthfulA, r.IndTruthfulB)
		f.curve("10b", "cheater").add(r.IndCheater)
		f.curve("10b", "truthful").add(r.IndVictim)
		f.curve("10", "cheater delta").add(r.CheaterDelta)
		if r.CheaterDelta <= -1e-9 {
			f.deltaLEneg++
		}
	case *experiments.DestinationPairResult:
		f.count["destination"]++
		f.curve("destination", "src-dst").add(r.GainSrcDst)
		f.curve("destination", "dst-only").add(r.GainDstOnly)
	case *experiments.ScalabilityPairResult:
		if len(r.GainShares) != len(ScalabilityFractions) || len(r.FlowShares) != len(ScalabilityFractions) {
			return fmt.Errorf("plot: scalability record %q: %d gain shares and %d flow shares, want %d each",
				r.Pair, len(r.GainShares), len(r.FlowShares), len(ScalabilityFractions))
		}
		f.count["scalability"]++
		for i := range ScalabilityFractions {
			f.curve("scalability.gain", strconv.Itoa(i)).add(r.GainShares[i])
			f.curve("scalability.flows", strconv.Itoa(i)).add(r.FlowShares[i])
		}
	case *experiments.StabilityCaseResult:
		f.count["stability"]++
		switch r.Outcome {
		case stability.Converged, stability.Oscillated:
			f.outcomes[r.Outcome]++
		default:
			f.outcomes[stability.Exhausted]++
		}
		f.curve("stability", "reactive").add(r.ReactiveWorst)
		f.curve("stability", "negotiated").add(r.NegotiatedWorst)
	default:
		return fmt.Errorf("plot: unknown record type %T", r)
	}
	return nil
}

// addSummary merges one summary line. Digests are checked before any
// is merged, so a rejected line leaves the fold untouched.
func (f *Fold) addSummary(l *ndjsonLine) error {
	for name, d := range l.Digests {
		if d == nil || d.Sketch.N() != d.Stream.N() {
			return fmt.Errorf("plot: %q summary: digest %q is null or inconsistent", l.Experiment, name)
		}
	}
	if _, streamed := decoders[l.Experiment]; streamed {
		f.Ran(l.Experiment) // the ablation is never streamed
	}
	agg, ok := f.summaries[l.Experiment]
	if !ok {
		agg = &summaryAgg{digests: map[string]*stats.Digest{}, raw: map[string]string{}}
		f.summaries[l.Experiment] = agg
	}
	agg.results += l.Results
	agg.lines++
	for name, d := range l.Digests {
		if have, ok := agg.digests[name]; ok {
			have.Merge(d)
		} else {
			agg.digests[name] = d
		}
	}
	for name, s := range l.Series {
		agg.raw[name] = s
	}
	return nil
}

// frac reproduces stats.CDF.At's arithmetic from an online count, so
// the decoration lines match a CDF over the retained samples bit for
// bit: At(x) = count(<= x)/n, 0 for an empty set; FractionAbove = 1 - At.
func frac(le, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(le) / float64(n)
}

// Render writes the sections fig selects, in -fig all order, for the
// experiments present in the fold, followed by the merged summary
// lines of any streamed summaries folded in.
func (f *Fold) Render(w io.Writer, fig string) error {
	if err := CheckFlags(fig, f.points); err != nil {
		return err
	}
	p := printer{bufio.NewWriter(w), f}
	for _, s := range layout {
		if _, present := f.count[s.exp]; present && s.selected(fig) {
			s.render(p)
		}
	}
	if len(f.summaries) > 0 {
		p.section("Streaming summaries (merged across shards)")
		for _, exp := range summaryOrder(f.summaries) {
			agg := f.summaries[exp]
			fmt.Fprintf(p, "%s: %d results\n", exp, agg.results)
			for _, name := range sortedKeys(agg.digests, agg.raw) {
				if d, ok := agg.digests[name]; ok {
					fmt.Fprintf(p, "  %s: %s\n", name, d.StableSummary())
				} else if agg.lines == 1 {
					fmt.Fprintf(p, "  %s: %s\n", name, agg.raw[name])
				} else {
					// Legacy shards without digests cannot merge; say so
					// instead of printing one shard's numbers as the whole.
					fmt.Fprintf(p, "  %s: (unmergeable: shards carry no digests)\n", name)
				}
			}
		}
	}
	return p.Flush()
}

// printer writes the sections of one Render.
type printer struct {
	*bufio.Writer
	f *Fold
}

func (p printer) section(title string) { fmt.Fprintf(p, "\n=== %s ===\n", title) }

func (p printer) summary(panel, name string) string {
	return p.f.curve(panel, name).dig.StableSummary()
}

// series prints one panel's table over its fixed axis, then one summary
// line per curve, in the given order.
func (p printer) series(panel string, names ...string) {
	ax := axes[panel]
	curves := make(map[string]*curve, len(names))
	for _, name := range names {
		curves[name] = p.f.curve(panel, name)
	}
	fmt.Fprint(p, stats.FormatSeries(ax.label, ax.min, ax.max, p.f.points, curves, names))
	for _, name := range names {
		fmt.Fprintf(p, "  %s: %s\n", name, p.summary(panel, name))
	}
}

// summaryOrder lists present experiments in nexitsim's emission order,
// then any strangers alphabetically.
func summaryOrder(m map[string]*summaryAgg) []string {
	known := []string{"distance", "bandwidth", "distance-cheat", "destination", "scalability", "stability"}
	var out []string
	seen := map[string]bool{}
	for _, k := range known {
		if _, ok := m[k]; ok {
			out = append(out, k)
			seen[k] = true
		}
	}
	var rest []string
	for k := range m {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func sortedKeys(digests map[string]*stats.Digest, raw map[string]string) []string {
	seen := map[string]bool{}
	var out []string
	for k := range digests {
		seen[k] = true
		out = append(out, k)
	}
	for k := range raw {
		if !seen[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
