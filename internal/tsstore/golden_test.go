package tsstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hbbp/internal/profstore"
)

// TestGoldenV1SeriesByteIdentity pins the series directory format
// against a committed v1 fixture: a store written before the interned
// kernel existed must open into interned windows and re-save to
// identical bytes, file for file — index and every window.
func TestGoldenV1SeriesByteIdentity(t *testing.T) {
	const fixture = "testdata/golden_v1_series"
	s, err := Open(fixture)
	if err != nil {
		t.Fatalf("Open fixture: %v", err)
	}

	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}

	want, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("re-save produced %d files, fixture has %d", len(got), len(want))
	}
	for _, e := range want {
		a, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("re-save is missing %s: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs after Open → Save round trip", e.Name())
		}
	}

	// Window answers over fixture data exactly as the flat reference
	// merge of every materialized window does.
	lo, hi, ok := s.Bounds()
	if !ok {
		t.Fatal("fixture series is empty")
	}
	treeAns, _ := s.Window(lo, hi)
	var all []*profstore.Profile
	for i := 0; i < s.Len(); i++ {
		p, _ := s.At(i)
		all = append(all, p)
	}
	ta, err := profstore.AppendSave(nil, treeAns)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := profstore.AppendSave(nil, profstore.Merge(all...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta, fa) {
		t.Fatal("merge-tree answer over the fixture diverges from the flat merge")
	}
}
