package regress

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"divsql/internal/difftest"
	"divsql/internal/metamorph"
)

// TestReplayCorpus replays every committed case through a fresh stack
// and asserts the recorded divergence reproduces under the recorded
// verdict source. This is the regression gate: a change that makes any
// case stop reproducing either fixed the simulated fault path (update
// or retire the case deliberately) or broke the machinery that detects
// it (fix the change).
func TestReplayCorpus(t *testing.T) {
	cases, err := difftest.LoadCases("cases")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty corpus: regress/cases holds no case files")
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			ok, err := difftest.Replay(c)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("case %s (server %s, oracle %q, fp %q) no longer reproduces",
					c.Name, c.Server, c.Oracle, c.Fingerprint)
			}
		})
	}
}

// TestCorpusWellFormed asserts corpus hygiene beyond what replay needs:
// every case names a known verdict source and a non-empty stream, and
// names match content — each case, loaded and exported into an empty
// directory, lands under its own file name (ExportCase names a case by
// its server, verdict source and fingerprint, the export dedup key)
// with its file's exact bytes, so the loaded record is the whole case.
func TestCorpusWellFormed(t *testing.T) {
	cases, err := difftest.LoadCases("cases")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"": true}
	for _, o := range metamorph.Oracles {
		known[string(o)] = true
	}
	dir := t.TempDir()
	for _, c := range cases {
		if !known[c.Oracle] {
			t.Errorf("case %s: unknown verdict source %q", c.Name, c.Oracle)
		}
		if len(c.Stream) == 0 {
			t.Errorf("case %s: empty stream", c.Name)
		}
		path, err := difftest.ExportCase(dir, c)
		if err != nil {
			t.Fatal(err)
		}
		if stem := strings.TrimSuffix(filepath.Base(path), ".json"); stem != c.Name {
			t.Errorf("case %s: content names it %s", c.Name, stem)
		}
	}
	files, err := filepath.Glob(filepath.Join("cases", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(cases) {
		t.Errorf("%d case files, %d cases loaded", len(files), len(cases))
	}
	for _, f := range files {
		want, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(f)))
		if err != nil {
			t.Errorf("%s: not re-exported under its name: %v", f, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: export round trip differs:\n%s", f, got)
		}
	}
}
