package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLines(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: hbbp/internal/tsstore
BenchmarkSeriesWindow-8   	    6446	    184483 ns/op	  170722 B/op	      46 allocs/op
BenchmarkSeriesAppend     	  136424	      8810 ns/op
BenchmarkWireIngest1Agent 	  203931	     11700 ns/op	   8.21 MB/s	     544 B/op	      17 allocs/op
PASS
`
	got, err := parseBenchLines(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []result{
		{"BenchmarkSeriesWindow", 6446, 184483},
		{"BenchmarkSeriesAppend", 136424, 8810},
		{"BenchmarkWireIngest1Agent", 203931, 11700},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRunVerdicts(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	if err := os.WriteFile(baseline, []byte(`{"benchmarks": [
		{"name": "BenchmarkFast", "ns_per_op": 1000, "benchtime": "10x"},
		{"name": "BenchmarkSlow", "ns_per_op": 1000, "benchtime": "10x"},
		{"name": "BenchmarkPinned", "ns_per_op": 1000, "benchtime": "200x"},
		{"name": "BenchmarkUntimed", "ns_per_op": 1000},
		{"name": "BenchmarkTimed", "ns_per_op": 1000, "benchtime": "2s"}
	]}`), 0o666); err != nil {
		t.Fatal(err)
	}

	// Within the limit: ratio 5x passes at max 10x.
	var out strings.Builder
	code := run(baseline, 10, strings.NewReader(
		"BenchmarkFast-4 10 5000 ns/op\n"), &out)
	if code != 0 {
		t.Fatalf("within-limit run exited %d:\n%s", code, out.String())
	}

	// Past the limit: ratio 20x fails.
	out.Reset()
	code = run(baseline, 10, strings.NewReader(
		"BenchmarkSlow-4 10 20000 ns/op\n"), &out)
	if code != 1 {
		t.Fatalf("regressed run exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("no FAIL verdict in output:\n%s", out.String())
	}

	// A baseline entry recorded at a benchtime: the run passes at that
	// iteration count and fails, naming both counts, at any other.
	out.Reset()
	code = run(baseline, 10, strings.NewReader(
		"BenchmarkPinned-4 200 1000 ns/op\n"), &out)
	if code != 0 {
		t.Fatalf("run at the recorded benchtime exited %d:\n%s", code, out.String())
	}
	out.Reset()
	code = run(baseline, 10, strings.NewReader(
		"BenchmarkPinned-4 5 1000 ns/op\n"), &out)
	if code != 1 {
		t.Fatalf("run at another benchtime exited %d, want 1:\n%s", code, out.String())
	}
	if msg := out.String(); !strings.Contains(msg, "ran 5 iterations") || !strings.Contains(msg, "200x") {
		t.Errorf("benchtime failure does not name both counts:\n%s", msg)
	}

	// A compared entry without an "Nx" benchtime fails even at ratio
	// 1: its recording's iteration count is unknown. A duration
	// benchtime does not pin the count either.
	for _, name := range []string{"BenchmarkUntimed", "BenchmarkTimed"} {
		out.Reset()
		code = run(baseline, 10, strings.NewReader(name+"-4 10 1000 ns/op\n"), &out)
		if code != 1 {
			t.Fatalf("%s run exited %d, want 1:\n%s", name, code, out.String())
		}
		if !strings.Contains(out.String(), "no \"Nx\" benchtime") {
			t.Errorf("%s failure does not say the benchtime is missing:\n%s", name, out.String())
		}
	}

	// Nothing matched: the guard must not silently pass.
	out.Reset()
	code = run(baseline, 10, strings.NewReader(
		"BenchmarkRenamed-4 10 100 ns/op\n"), &out)
	if code != 2 {
		t.Fatalf("unmatched run exited %d, want 2:\n%s", code, out.String())
	}
}
