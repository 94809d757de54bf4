package plot

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// FuzzFoldAddLine feeds arbitrary bytes to AddLine, on a fresh fold and
// on one already holding a real run, then renders every section. The
// fold must never panic, and every line it rejects must come back as a
// "plot: " error. The seed corpus is a small real run, regenerated with
//
//	go run ./cmd/nexitsim -isps 12 -max-pairs 1 -max-failures 2 -stream -fig all > internal/plot/testdata/stream.ndjson
func FuzzFoldAddLine(f *testing.F) {
	stream, err := os.ReadFile("testdata/stream.ndjson")
	if err != nil {
		f.Fatal(err)
	}
	var summaries []byte // the run's summary lines, preloaded below
	for _, line := range bytes.Split(stream, []byte("\n")) {
		f.Add(line)
		if !bytes.Contains(line, []byte(`"data"`)) {
			summaries = append(summaries, line...)
			summaries = append(summaries, '\n')
		}
	}
	f.Add([]byte(`{"experiment":"distance","data":null}`))
	f.Add([]byte(`{"experiment":"scalability","data":{"gain_shares":[1],"flow_shares":[]}}`))
	f.Add([]byte(`{"experiment":"stability","results":-1,"digests":{"x":{"stream":{"n":1,"sum":1,"min":1,"max":1},"sketch":{"cap":8,"n":1,"points":[[1,1]]}}}}`))

	f.Fuzz(func(t *testing.T, line []byte) {
		// A small sketch capacity makes merged fuzz digests compact.
		fresh, loaded := NewFold(4, 8), NewFold(4, 8)
		if err := loaded.ReadLines(bytes.NewReader(summaries)); err != nil {
			t.Fatal(err)
		}
		for _, fold := range []*Fold{fresh, loaded} {
			if err := fold.AddLine(line); err != nil && !strings.HasPrefix(err.Error(), "plot: ") {
				t.Fatalf("unlabelled error %q", err)
			}
			if err := fold.Render(io.Discard, "all"); err != nil {
				t.Fatal(err)
			}
		}
	})
}
