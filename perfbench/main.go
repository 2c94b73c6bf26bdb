// Command perfbench is the end-to-end benchmark of the hbbp library.
//
// One run sets up one workload, starts an in-process FleetServer on
// loopback, and drives the library only through the root hbbp package,
// timing every call into it from outside. It checks the outputs,
// prints every metric by name with its unit, and ends with one JSON
// line: correct, attempted, failed and the metrics — the end-to-end
// metrics of an untraced phase, or with --trace 1 the per-layer
// metrics of a traced phase that follows it.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
//
// Workloads: pipeline (profiling through capture, delivery and query),
// ingest (the server's write path at saturation) and query (windowed
// reads interleaved with writes). See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spansOut string // where the traced phase's spans are written
	setups   int    // cold set-ups whose median is setup_s; 0 or 1 times only the run's own

	// Faults for the smoke test; each must make the run fail a gate.
	tamperReference bool // give each rotation workload another's reference mix
	dropAck         bool // forget one acknowledged profile when verifying
}

// setupRuns is how many cold set-ups a run times for setup_s.
const setupRuns = 5

var workloadNames = []string{"pipeline", "ingest", "query"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line that ends the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: pipeline, ingest or query")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: pool order, agent names, rotation and query ranges")
	flag.Float64Var(&seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced phase and reports per-layer metrics")
	flag.StringVar(&cfg.spansOut, "spans", "", "file for the traced phase's spans (default .bench_build/spans-WORKLOAD-seedN.jsonl)")
	setupOnly := flag.Bool("setup-only", false, "set the workload up once, print its wall in seconds and exit")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.setups = setupRuns
	cfg.trace = trace == 1
	if !validWorkload(cfg.workload) || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v, --seconds > 0, --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	if cfg.spansOut == "" {
		cfg.spansOut = fmt.Sprintf(".bench_build/spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if *setupOnly {
		e, err := newEnv(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			os.Exit(1)
		}
		e.close()
		fmt.Println(e.setup.wall.Seconds())
		return
	}
	res, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func validWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// run sets the workload up once and measures the untraced phase. The
// registry, the compiled workload images and their calibrations are
// built once per process, so only this first set-up is cold; it is the
// one the set-up layer metrics report. setup_s is the median wall of
// it and of cfg.setups-1 more cold set-ups, each in a child process of
// this binary, run one at a time before it. With cfg.trace it
// sets up once more and measures the traced phase on that fresh
// set-up, so both phases start from the same server state and their
// difference is the tracing overhead. Each phase is verified after it
// ends.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	walls, err := childSetups(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	e, err := newEnv(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	cold := e.setup
	cold.wall = time.Duration(median(append(walls, float64(cold.wall))))
	plain := e.runPhase(ctx, 0, false)
	e.verify(plain)
	e.close()

	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%t\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	e2e := e.endToEnd(plain, cold)
	e2e.notes = append(e2e.notes, fmt.Sprintf("setup_s is the median of %d cold set-ups, %d of them in child processes",
		len(walls)+1, len(walls)))
	printEndToEnd(out, "end-to-end (untraced)", e2e)
	res := &result{Metrics: e2e.metrics}
	gates := plain.gates
	res.Attempted, res.Failed = plain.counts()
	if cfg.trace {
		te, err := newEnv(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		traced := te.runPhase(ctx, 1, true)
		te.verify(traced)
		te.close()
		spans := traced.spans()
		if err := writeSpans(cfg.spansOut, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		tr := te.endToEnd(traced, cold)
		printEndToEnd(out, "end-to-end (traced)", tr)
		path := blockingPath(spans, traced.wall)
		layers := te.perLayer(traced, cold, path, e2e, tr)
		printLayers(out, traced, path, layers, e2e, tr, len(spans), cfg.spansOut)
		res.Metrics = layers
		gates = append(gates, traced.gates...)
		a, f := traced.counts()
		res.Attempted += a
		res.Failed += f
	}
	for _, g := range gates {
		fmt.Fprintln(out, "GATE FAILED:", g)
	}
	res.Failed += int64(len(gates))
	res.Correct = res.Failed == 0
	return res, nil
}

// childSetups times cfg.setups-1 cold set-ups of the workload, each in
// a child process of this binary that sets up, closes and exits.
func childSetups(ctx context.Context, cfg config) ([]float64, error) {
	var walls []float64
	if cfg.setups <= 1 {
		return walls, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for i := 1; i < cfg.setups; i++ {
		cmd := exec.CommandContext(ctx, self, "--setup-only", "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10))
		cmd.Stderr = os.Stderr
		line, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("child set-up %d: %w", i, err)
		}
		sec, err := strconv.ParseFloat(strings.TrimSpace(string(line)), 64)
		if err != nil {
			return nil, fmt.Errorf("child set-up %d printed %q", i, line)
		}
		walls = append(walls, sec*float64(time.Second))
	}
	return walls, nil
}

// counts sums the phase's attempted and failed façade operations;
// correctness checks count as attempted operations too, and their
// failures are added by the caller.
func (p *phase) counts() (attempted, failed int64) {
	attempted = p.checks.Load()
	for _, l := range p.lanes {
		attempted += l.attempted
		failed += l.failed
	}
	return attempted, failed
}
