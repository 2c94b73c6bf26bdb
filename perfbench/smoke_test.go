package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds the
// program to: every metric it lists, with its unit.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny runs one workload at smoke-test size.
func tiny(t *testing.T, workload string, trace bool, tweak func(*config)) (*result, string) {
	t.Helper()
	cfg := config{workload: workload, seed: 5, seconds: 300 * time.Millisecond, trace: trace,
		spansOut: filepath.Join(t.TempDir(), "spans.jsonl")}
	if tweak != nil {
		tweak(&cfg)
	}
	var out bytes.Buffer
	res, err := run(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, out.String()
}

// TestEveryMetricPrintsWithItsUnit runs each workload untraced and
// traced and checks the JSON line against BENCHMARK.json, and the
// human-readable output against every metric name it should carry.
func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, out := tiny(t, w.Name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			want := spec.EndToEnd
			printed := []string{"failed_share", "ack_ms_p", "query_ms_p"}
			if trace {
				want = spec.PerLayer
				printed = append(printed, "tracing overhead", "sum on blocking path")
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, m.Name) {
					t.Errorf("%s trace=%t: output does not print %s", w.Name, trace, m.Name)
				}
			}
			for _, name := range printed {
				if !strings.Contains(out, name) {
					t.Errorf("%s trace=%t: output does not print %s", w.Name, trace, name)
				}
			}
		}
	}
}

// TestTamperedReferenceFails gives each rotation workload another's
// SDE reference mix: the pipeline's mix gate must fail the run.
func TestTamperedReferenceFails(t *testing.T) {
	res, out := tiny(t, "pipeline", false, func(c *config) { c.tamperReference = true })
	if res.Correct || res.Failed == 0 || !strings.Contains(out, "GATE FAILED") {
		t.Fatalf("tampered reference passed: correct=%t failed=%d\n%s", res.Correct, res.Failed, out)
	}
}

// TestDroppedAckFails forgets one acknowledged profile when verifying:
// the Window keystone check (pipeline, query) and the server-ledger
// check (all workloads) must fail the run.
func TestDroppedAckFails(t *testing.T) {
	for _, w := range workloadNames {
		res, out := tiny(t, w, false, func(c *config) { c.dropAck = true })
		if res.Correct || res.Failed == 0 || !strings.Contains(out, "GATE FAILED") {
			t.Errorf("%s: dropped ack passed: correct=%t failed=%d\n%s", w, res.Correct, res.Failed, out)
		}
	}
}

// TestTracedPathCoversWall checks that the self times along the
// blocking path of a traced run add up to the traced wall within 10%.
func TestTracedPathCoversWall(t *testing.T) {
	for _, w := range workloadNames {
		res, _ := tiny(t, w, true, nil)
		if c := res.Metrics["trace.path_coverage"].Value; c < 0.9 || c > 1.0001 {
			t.Errorf("%s: blocking path covers %.3f of the traced wall", w, c)
		}
	}
}

// TestBlockingPathFollowsLastChild pins the self-time arithmetic on a
// hand-made trace: a root with two overlapping children and one after
// them.
func TestBlockingPathFollowsLastChild(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 50},
		{Name: "b", ID: 3, Parent: 1, Start: 10, End: 60},
		{Name: "c", ID: 4, Parent: 1, Start: 70, End: 90},
		{Name: "d", ID: 5, Parent: 3, Start: 20, End: 30},
	}
	p := blockingPath(spans, 100)
	want := map[string]time.Duration{"root": 30, "b": 40, "d": 10, "c": 20}
	for k, v := range want {
		if p.self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, p.self[k], v)
		}
	}
	if _, ok := p.self["a"]; ok || p.total() != 100 {
		t.Errorf("path %v (total %d): want a off the path and a total of 100", p.self, p.total())
	}
}

// TestImportsOnlyTheFacade holds the benchmark to the library's public
// root package: nothing but the standard library and "hbbp".
func TestImportsOnlyTheFacade(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			first, _, _ := strings.Cut(path, "/")
			if path != "hbbp" && (first == "hbbp" || strings.Contains(first, ".")) {
				t.Errorf("%s imports %q; the benchmark may use only the root hbbp package", file, path)
			}
		}
	}
}
