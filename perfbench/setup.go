package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"

	"hbbp"
)

const tenant = "bench"

// rotationNames are the pipeline's workloads: short-block programs
// (the first four), where per-instruction work dominates, and
// long-block ones, where the block-granular retirement path helps.
var rotationNames = []string{
	"hydro-post", "megamorphic-branchy", "test40", "callgraph-deep",
	"lbm", "phase-alternating", "fitter-avx",
}

// poolNames are the registry workloads whose captures (0.3-6 KB,
// 9-467 blocks at scale 0.1) the ingest and query workloads deliver.
var poolNames = []string{
	"clforward-after", "fitter-sse", "lbm", "hydro-post",
	"gcc", "povray", "test40", "megamorphic-branchy",
}

const (
	poolScale    = 0.1
	historyDepth = 64 // query: pre-ingested epochs; enough for 4:1 and 16:1 windows under DefaultRetention
	epochWrites  = 8  // query: writes per epoch
	writeBatch   = 8  // query: profiles per write
	mixErrorGate = 10 // percent: a profile's mix further than this from its reference fails the run
)

// subject is one registry workload with everything set-up knows about
// it: the SDE reference mix, the mix and capture a profiled run must
// reproduce, and the run's collection statistics.
type subject struct {
	name   string
	w      *hbbp.Workload
	ref    hbbp.Mix
	mix    hbbp.Mix
	stored *hbbp.StoredProfile
	errPct float64 // AvgWeightedError of mix vs ref, percent
	ovhPct float64 // modelled collection overhead, percent
	minst  float64 // simulated instructions retired, millions
	pmis   uint64
	lost   uint64
}

// setupTimes are the set-up's per-layer costs.
type setupTimes struct {
	wall      time.Duration
	build     time.Duration // LookupWorkload + warm-up Profile
	train     time.Duration // Session.Train
	reference time.Duration // reference-instrumented Profile calls
	cacheHits float64       // harness run cache during Train
	cacheReqs float64
}

// env is one set-up: a trained session, the workload's subjects, an
// in-process server on loopback and the ledger of acked profiles.
type env struct {
	cfg      config
	sess     *hbbp.Session
	subjects []*subject
	srv      *hbbp.FleetServer
	reg      *hbbp.Telemetry // the server's private registry
	addr     string
	agents   [2][]string // agent identities per load goroutine
	setup    setupTimes
	setupRun *lane // timed Profile/Mix/Capture calls of the pool captures

	// acked lists, per epoch, the subjects whose captures the server
	// acknowledged, in ack order. Written only by the goroutine that
	// owns the epoch loop (pipeline coordinator, query client).
	acked     map[uint64][]int
	nextEpoch uint64
}

// newEnv runs the workload's whole set-up: session and Train, the
// subjects' warm-up and reference runs, pool captures, the server and,
// for query, the pre-ingested history.
func newEnv(ctx context.Context, cfg config) (*env, error) {
	t0 := time.Now()
	e := &env{cfg: cfg, acked: make(map[uint64][]int), setupRun: newLane(0, t0, false)}
	rng := rand.New(rand.NewSource(cfg.seed))
	names, scale := poolNames, poolScale
	if cfg.workload == "pipeline" {
		names, scale = rotationNames, 1
	}
	var opts []hbbp.Option
	if scale < 1 {
		opts = append(opts, hbbp.WithWorkloadScale(scale))
	}
	sess, err := hbbp.New(opts...)
	if err != nil {
		return nil, err
	}
	e.sess = sess

	before := readCounters(hbbp.DefaultTelemetry())
	t := time.Now()
	if _, err := sess.Train(ctx); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	e.setup.train = time.Since(t)
	d := readCounters(hbbp.DefaultTelemetry()).since(before)
	e.setup.cacheHits = d[`hbbp_harness_runcache_total{result="hit"}`]
	e.setup.cacheReqs = e.setup.cacheHits + d[`hbbp_harness_runcache_total{result="miss"}`]

	for _, i := range rng.Perm(len(names)) {
		s, err := e.prepare(ctx, names[i], cfg.workload != "pipeline")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		e.subjects = append(e.subjects, s)
	}
	for g := range e.agents {
		for i := 0; i < 16; i++ {
			e.agents[g] = append(e.agents[g], fmt.Sprintf("host-%06x-%d-%d", rng.Intn(1<<24), g, i))
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.reg = hbbp.NewTelemetry()
	e.srv = hbbp.Serve(ln, hbbp.FleetServerConfig{Retention: hbbp.DefaultRetention(), Telemetry: e.reg})
	e.addr = e.srv.Addr().String()
	if cfg.workload == "query" {
		if err := e.preIngest(ctx, rng); err != nil {
			e.close()
			return nil, fmt.Errorf("history: %w", err)
		}
	}
	if cfg.tamperReference {
		// Hand every subject its neighbour's reference mix.
		first := e.subjects[0].ref
		for i := range e.subjects {
			if i+1 < len(e.subjects) {
				e.subjects[i].ref = e.subjects[i+1].ref
			} else {
				e.subjects[i].ref = first
			}
		}
	}
	e.setup.wall = time.Since(t0)
	return e, nil
}

// prepare builds one subject: a warm-up run, a reference-instrumented
// run, and, for pool subjects, a timed delivery run whose Profile,
// InstructionMix and CaptureProfile calls feed the collection layers'
// metrics on the workloads whose timed phase makes none.
func (e *env) prepare(ctx context.Context, name string, pool bool) (*subject, error) {
	s := &subject{name: name}
	t := time.Now()
	w, err := hbbp.LookupWorkload(name)
	if err != nil {
		return nil, err
	}
	warm, err := e.sess.Profile(ctx, w)
	if err != nil {
		return nil, err
	}
	e.setup.build += time.Since(t)
	s.w = w

	t = time.Now()
	ins := hbbp.NewInstrumenter(w.Prog)
	if _, err := e.sess.Profile(ctx, w, ins); err != nil {
		return nil, err
	}
	e.setup.reference += time.Since(t)
	s.ref = hbbp.ReferenceMix(ins)

	prof := warm
	if pool {
		l := e.setupRun
		h := l.start(spanProfile, 0, 0)
		prof, err = e.sess.Profile(ctx, w)
		h.stop()
		if !l.count(err) {
			return nil, err
		}
		h = l.start(spanMix, 0, 0)
		s.mix = hbbp.InstructionMix(prof, hbbp.ViewOptions{})
		h.stop()
		l.count(nil)
		if !sameMix(s.mix, hbbp.InstructionMix(warm, hbbp.ViewOptions{})) {
			return nil, fmt.Errorf("two runs of one workload gave different mixes")
		}
		h = l.start(spanCapture, 0, 0)
		s.stored, err = hbbp.CaptureProfile(prof, name)
		h.stop()
		if !l.count(err) {
			return nil, err
		}
	} else {
		s.mix = hbbp.InstructionMix(prof, hbbp.ViewOptions{})
		if s.stored, err = hbbp.CaptureProfile(prof, name); err != nil {
			return nil, err
		}
	}
	s.errPct = mixError(s.ref, s.mix)
	if s.errPct > mixErrorGate {
		return nil, fmt.Errorf("mix error %.2f%% vs the SDE reference exceeds the %d%% gate", s.errPct, mixErrorGate)
	}
	c := prof.Collection
	s.ovhPct = 100 * (c.OverheadFactor() - 1)
	s.minst = float64(c.Stats.Retired) / 1e6
	s.pmis = c.PMIs
	s.lost = c.LostEBS + c.LostLBR
	return s, nil
}

// preIngest delivers the query workload's history: historyDepth
// epochs of epochWrites*writeBatch pool captures each.
func (e *env) preIngest(ctx context.Context, rng *rand.Rand) error {
	c, err := hbbp.Dial(ctx, e.addr, e.clientConfig("history"))
	if err != nil {
		return err
	}
	defer c.Close()
	for ep := uint64(0); ep < historyDepth; ep++ {
		idx, profs := e.draw(rng, epochWrites*writeBatch)
		if err := c.SendBatch(ctx, ep, profs); err != nil {
			return err
		}
		e.acked[ep] = append(e.acked[ep], idx...)
	}
	e.nextEpoch = historyDepth
	return nil
}

// draw picks n pool subjects at random, returning their indices and
// captures.
func (e *env) draw(rng *rand.Rand, n int) ([]int, []*hbbp.StoredProfile) {
	idx := make([]int, n)
	profs := make([]*hbbp.StoredProfile, n)
	for i := range idx {
		idx[i] = rng.Intn(len(e.subjects))
		profs[i] = e.subjects[idx[i]].stored
	}
	return idx, profs
}

func (e *env) clientConfig(agent string) hbbp.FleetClientConfig {
	return hbbp.FleetClientConfig{Tenant: tenant, Agent: agent, MaxAttempts: 8}
}

// close drains and stops the server.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.srv.Close()
	}
}

// subjectMeans are the mean mix error and modelled overhead over the
// subjects, summed in name order so that the value does not depend on
// the seeded order. Every delivered profile repeats its subject's
// values exactly (the pipeline checks each one), so these are also
// the means over a whole number of rotations.
func (e *env) subjectMeans() (errPct, ovhPct float64) {
	s := append([]*subject(nil), e.subjects...)
	sort.Slice(s, func(i, j int) bool { return s[i].name < s[j].name })
	for _, x := range s {
		errPct += x.errPct
		ovhPct += x.ovhPct
	}
	n := float64(len(s))
	return errPct / n, ovhPct / n
}

// mixError is AvgWeightedError(ref, mix) in percent, summed in
// mnemonic order. The library sums in map order, which moves the last
// bits from run to run; on single-entry mixes it is exact, so summing
// its per-mnemonic terms in a fixed order makes the result
// bit-identical across runs.
func mixError(ref, mix hbbp.Mix) float64 {
	ops := make([]hbbp.Op, 0, len(ref))
	for op := range ref {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	var total, sum float64
	for _, op := range ops {
		total += ref[op]
	}
	for _, op := range ops {
		v := ref[op]
		sum += hbbp.AvgWeightedError(hbbp.Mix{op: v}, hbbp.Mix{op: mix[op]}) * v / total
	}
	return 100 * sum
}

// sameMix reports whether two mixes are bit-identical.
func sameMix(a, b hbbp.Mix) bool {
	if len(a) != len(b) {
		return false
	}
	for op, v := range a {
		if w, ok := b[op]; !ok || w != v {
			return false
		}
	}
	return true
}
