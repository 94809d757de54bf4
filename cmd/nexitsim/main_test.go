package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden figure tables")

// TestFigureGolden pins figure mode's output byte for byte, driving the
// command in process. The goldens cover every -fig value on the
// 12-ISP dataset, empty experiments (-isps 2 has no eligible pair), and
// a default-dataset -fig all run whose Figure 6 curves hold 23,420
// samples each, well past stats.DefaultSketchCap: figure mode's
// summary lines must stay exact. A change that moves these bytes
// changes the reproduction's output; regenerate with
//
//	go test ./cmd/nexitsim -run TestFigureGolden -update
//
// only when that is the intent, and say so in the commit.
func TestFigureGolden(t *testing.T) {
	type golden struct {
		name string
		args []string
	}
	cases := []golden{
		{"fig-all-p24-f40", []string{"-fig", "all", "-max-pairs", "24", "-max-failures", "40"}},
		{"isps2-fig-all", []string{"-isps", "2", "-fig", "all"}},
	}
	for _, fig := range []string{"4", "5", "6", "7", "8", "9", "10", "11", "extras"} {
		cases = append(cases, golden{"isps12-fig-" + fig, []string{"-isps", "12", "-fig", fig}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(got) && i < len(wantLines); i++ {
				if got[i] != wantLines[i] {
					t.Fatalf("nexitsim %s: line %d diverges:\n  got  %q\n  want %q",
						strings.Join(tc.args, " "), i+1, got[i], wantLines[i])
				}
			}
			if len(got) != len(wantLines) {
				t.Fatalf("nexitsim %s: %d lines, golden has %d", strings.Join(tc.args, " "), len(got), len(wantLines))
			}
		})
	}
}

// Values outside the -fig vocabulary and tables of fewer than two rows
// are rejected up front with a labelled error, in figure mode and with
// -stream alike, before any output.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "12"},
		{"-fig", "12", "-stream"},
		{"-fig", ""},
		{"-points", "1"},
		{"-points", "0", "-stream"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+" ") {
			t.Errorf("nexitsim %s: err = %v, want a %s error", strings.Join(args, " "), err, args[0])
		}
		if out.Len() != 0 {
			t.Errorf("nexitsim %s wrote %d bytes before rejecting", strings.Join(args, " "), out.Len())
		}
	}
}
