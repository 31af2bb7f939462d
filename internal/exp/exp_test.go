package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<name>.golden from this run")

// live names the experiments that run real servers on real sockets: their
// numbers move with the machine, so they get shape checks only. Every
// other experiment is a seeded model and must render byte for byte.
var live = map[string]bool{"ablshard": true, "ablrebalance": true, "ablwatch": true}

// TestAllExperimentsRunAtTinyScale runs every figure end to end: each
// must produce non-empty tables that render, and a model-driven figure
// must render exactly as its golden, testdata/<name>.golden. Run with
// -update to rewrite the goldens; a changed golden is a changed figure
// and needs an explanation.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tables, err := e.Run(Options{Scale: MinScale, Seed: 3})
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.Name)
			}
			var sb strings.Builder
			for _, tab := range tables {
				if tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
					t.Fatalf("%s: empty table %+v", e.Name, tab)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("%s: row width %d != %d columns", e.Name, len(row), len(tab.Columns))
					}
				}
				tab.Fprint(&sb)
			}
			if !strings.Contains(sb.String(), "==") {
				t.Fatalf("%s: rendering produced no headers", e.Name)
			}
			if live[e.Name] {
				return
			}
			golden := filepath.Join("testdata", e.Name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("%s renders differently from %s:\n--- got\n%s--- want\n%s", e.Name, golden, got, want)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("fig5"); !ok {
		t.Error("fig5 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name found")
	}
	if len(All()) < 19 {
		t.Errorf("only %d experiments registered", len(All()))
	}
}

func TestOptionsScale(t *testing.T) {
	if got := (Options{Scale: 0.5}).scale(1000); got != 500 {
		t.Errorf("scale(1000) at 0.5 = %d", got)
	}
	if got := (Options{}).scale(1000); got != 1000 {
		t.Errorf("default scale = %d", got)
	}
	if got := (Options{Scale: 1e-9}).scale(1000); got < 100 {
		t.Errorf("clamped scale produced %d", got)
	}
}

func TestTableAddFormatsFloats(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	tab.Add(1.23456789, "x")
	if tab.Rows[0][0] != "1.235" {
		t.Errorf("float formatted as %q", tab.Rows[0][0])
	}
}
