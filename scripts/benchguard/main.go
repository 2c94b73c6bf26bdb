// Command benchguard compares `go test -bench` output read on stdin
// against the repo's recorded baseline (BENCH_baseline.json) and fails
// when any benchmark regressed past a ratio threshold.
//
// Usage:
//
//	go test -run NONE -bench X ./pkg/ | go run ./scripts/benchguard -baseline BENCH_baseline.json
//
// The guard is deliberately loose: CI machines differ from the machine
// the baseline was recorded on, and 1x-5x iteration counts are noisy,
// so only an order-of-magnitude regression (default -max-ratio 10)
// fails the build. It is a tripwire for "the fast path stopped being
// taken", not a performance test. Benchmarks missing from the baseline
// are reported and skipped; a run that matches nothing fails, so a
// renamed benchmark cannot silently disarm the guard. Every compared
// baseline entry must record a "benchtime" of the form "Nx": it was
// measured at N iterations, and a run at any other count fails, since
// ns/op at different iteration counts are not comparable. An entry
// the input names but that records no such benchtime fails too, so no
// guarded number is compared against a recording of unknown length.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

type baselineFile struct {
	Benchmarks []struct {
		Name      string  `json:"name"`
		NsPerOp   float64 `json:"ns_per_op"`
		Benchtime string  `json:"benchtime"`
	} `json:"benchmarks"`
}

// result is one parsed benchmark line from `go test -bench` output.
type result struct {
	name    string
	iters   int
	nsPerOp float64
}

// parseBenchLines extracts benchmark results from go test output.
// Lines look like:
//
//	BenchmarkSeriesWindow-8   6446   184483 ns/op   170722 B/op   46 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so names match the baseline on
// any machine.
func parseBenchLines(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// Find the "ns/op" unit; its value is the preceding field.
		for i := 2; i < len(fields); i++ {
			if fields[i] != "ns/op" {
				continue
			}
			ns, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchguard: bad ns/op value on line %q", sc.Text())
			}
			out = append(out, result{name: name, iters: iters, nsPerOp: ns})
			break
		}
	}
	return out, sc.Err()
}

func run(baselinePath string, maxRatio float64, in io.Reader, out io.Writer) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(out, "benchguard: %v\n", err)
		return 2
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(out, "benchguard: %s: %v\n", baselinePath, err)
		return 2
	}
	baseline := make(map[string]float64, len(base.Benchmarks))
	iters := make(map[string]int, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b.NsPerOp
		if n, ok := strings.CutSuffix(b.Benchtime, "x"); ok {
			if v, err := strconv.Atoi(n); err == nil {
				iters[b.Name] = v
			}
		}
	}

	results, err := parseBenchLines(in)
	if err != nil {
		fmt.Fprintf(out, "benchguard: %v\n", err)
		return 2
	}

	compared, failed := 0, 0
	for _, r := range results {
		want, ok := baseline[r.name]
		if !ok || want <= 0 {
			fmt.Fprintf(out, "benchguard: %-40s %12.0f ns/op  (not in baseline, skipped)\n", r.name, r.nsPerOp)
			continue
		}
		compared++
		n, ok := iters[r.name]
		if !ok {
			fmt.Fprintf(out, "benchguard: %-40s baseline records no \"Nx\" benchtime to compare at  FAIL\n", r.name)
			failed++
			continue
		}
		if n != r.iters {
			fmt.Fprintf(out, "benchguard: %-40s ran %d iterations, baseline recorded at -benchtime %dx  FAIL\n",
				r.name, r.iters, n)
			failed++
			continue
		}
		ratio := r.nsPerOp / want
		verdict := "ok"
		if ratio > maxRatio {
			verdict = fmt.Sprintf("FAIL (limit %.1fx)", maxRatio)
			failed++
		}
		fmt.Fprintf(out, "benchguard: %-40s %12.0f ns/op  baseline %12.0f  ratio %6.2fx  %s\n",
			r.name, r.nsPerOp, want, ratio, verdict)
	}
	if compared == 0 {
		fmt.Fprintf(out, "benchguard: no benchmark in the input matched the baseline — wrong -bench pattern or renamed benchmarks?\n")
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(out, "benchguard: %d of %d benchmarks failed (regressed past %.1fx, ran at another benchtime or have none recorded)\n",
			failed, compared, maxRatio)
		return 1
	}
	fmt.Fprintf(out, "benchguard: %d benchmarks within %.1fx of baseline\n", compared, maxRatio)
	return 0
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file to compare against")
	maxRatio := flag.Float64("max-ratio", 10, "fail when measured ns/op exceeds baseline by this factor")
	flag.Parse()
	os.Exit(run(*baselinePath, *maxRatio, os.Stdin, os.Stderr))
}
