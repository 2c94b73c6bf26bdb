package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hbbp"
)

const (
	ingestBatch     = 16 // profiles per ingest SendBatch
	batchesPerEpoch = 32 // ingest: batches per epoch across both clients
)

// phase is one timed run of the workload's load loop.
type phase struct {
	index   int
	tracing bool
	t0      time.Time
	wall    time.Duration
	lanes   []*lane

	acked   int64 // profiles acknowledged
	heapMB  float64
	clients hbbp.FleetClientStats // summed over every client of the phase
	samples []windowSample
	units   unitLog

	def, srv counters // telemetry over the phase: process-wide and server registries
	merged   hbbp.FleetTenantStats
	gates    []error       // correctness-gate failures
	checks   atomic.Int64  // correctness checks made
	traces   atomic.Uint64 // trace ids handed out
	mu       sync.Mutex
}

// unitLog splits a phase into its repeating units of load: pipeline
// rotations, ingest and query epochs. The throughput metrics are the
// median of the units' rates, which a burst of load from outside the
// benchmark moves less than a whole-phase mean does.
type unitLog struct {
	mu    sync.Mutex
	start []time.Time // start[i] is when unit i began; it is complete once unit i+1 has begun
	work  []unitWork
}

// unitWork is what a unit completed: profiles acked, the simulated
// MInst behind them, and SendBatch plus Window calls.
type unitWork struct {
	acked int64
	minst float64
	ops   int
}

func (w *unitWork) add(o unitWork) {
	w.acked += o.acked
	w.minst += o.minst
	w.ops += o.ops
}

// add books w to unit i, first starting every unit up to i that has
// not begun yet.
func (u *unitLog) add(i int, w unitWork) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for len(u.start) <= i {
		u.start = append(u.start, time.Now())
		u.work = append(u.work, unitWork{})
	}
	u.work[i].add(w)
}

// rate is the median over complete units of f(work) per second. A
// phase too short to complete a unit counts as one unit.
func (p *phase) rate(f func(unitWork) float64) float64 {
	u := &p.units
	var rates []float64
	for i := 0; i+1 < len(u.start); i++ {
		rates = append(rates, f(u.work[i])/u.start[i+1].Sub(u.start[i]).Seconds())
	}
	if len(rates) == 0 {
		var all unitWork
		for _, w := range u.work {
			all.add(w)
		}
		return f(all) / p.wall.Seconds()
	}
	return median(rates)
}

// windowSample is a Window result kept for verification, with the
// ack ledger's length for the one epoch that could still grow.
type windowSample struct {
	since, until uint64
	prof         *hbbp.StoredProfile
	spans        []hbbp.SeriesSpan
	liveEpoch    uint64
	liveAcked    int
}

// samplesOf returns every lane's durations for one span name.
func (p *phase) samplesOf(name string) []time.Duration {
	var out []time.Duration
	for _, l := range p.lanes {
		out = append(out, l.samples[name]...)
	}
	return out
}

func (p *phase) spans() []span {
	var out []span
	for _, l := range p.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// trace returns a fresh trace id: one per agent-epoch, ingest cycle
// or query operation.
func (p *phase) trace() uint64 { return p.traces.Add(1) }

func (p *phase) fail(err error) {
	p.mu.Lock()
	p.gates = append(p.gates, err)
	p.mu.Unlock()
}

func (p *phase) addClient(st hbbp.FleetClientStats, acked int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acked += acked
	p.clients.Acked += st.Acked
	p.clients.DuplicateAcks += st.DuplicateAcks
	p.clients.ResumeSkipped += st.ResumeSkipped
	p.clients.OverloadNacks += st.OverloadNacks
	p.clients.RejectedNacks += st.RejectedNacks
	p.clients.ConnErrors += st.ConnErrors
	p.clients.Retries += st.Retries
}

// runPhase measures one phase of the workload for cfg.seconds, then
// reads the heap and the telemetry before anything untimed runs.
func (e *env) runPhase(ctx context.Context, index int, tracing bool) *phase {
	runtime.GC()
	p := &phase{index: index, tracing: tracing}
	statsBefore := e.tenantStats()
	def0, srv0 := readCounters(hbbp.DefaultTelemetry()), readCounters(e.reg)
	p.t0 = time.Now()
	for i := 0; i < 3; i++ {
		p.lanes = append(p.lanes, newLane(i, p.t0, tracing))
	}
	switch e.cfg.workload {
	case "pipeline":
		e.pipeline(ctx, p)
	case "ingest":
		e.ingest(ctx, p)
	case "query":
		e.query(ctx, p)
	}
	p.wall = time.Since(p.t0)
	p.def = readCounters(hbbp.DefaultTelemetry()).since(def0)
	p.srv = readCounters(e.reg).since(srv0)
	after := e.tenantStats()
	p.merged = hbbp.FleetTenantStats{
		Merged:     after.Merged - statsBefore.Merged,
		Duplicates: after.Duplicates - statsBefore.Duplicates,
		Shed:       after.Shed - statsBefore.Shed,
		Rejected:   after.Rejected - statsBefore.Rejected,
		Corrupt:    after.Corrupt - statsBefore.Corrupt,
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heapMB = float64(m.HeapAlloc) / 1e6
	return p
}

func (e *env) tenantStats() hbbp.FleetTenantStats {
	for _, t := range e.srv.Stats().Tenants {
		if t.Tenant == tenant {
			return t
		}
	}
	return hbbp.FleetTenantStats{}
}

// dial opens one agent's client.
func (e *env) dial(ctx context.Context, l *lane, agent string, parent, trace uint64) *hbbp.FleetClient {
	h := l.start(spanDial, parent, trace)
	c, err := hbbp.Dial(ctx, e.addr, e.clientConfig(agent))
	h.stop()
	if !l.count(err) {
		return nil
	}
	return c
}

// closeClient closes one agent's client and books its statistics.
func (e *env) closeClient(p *phase, l *lane, c *hbbp.FleetClient, acked int64, parent, trace uint64) {
	st := c.Stats()
	h := l.start(spanClose, parent, trace)
	err := c.Close()
	h.stop()
	l.count(err)
	p.addClient(st, acked)
}

// send delivers profiles for one epoch. Untraced it is one SendBatch
// call; traced it is split at SendBatch's public seam into a
// SaveProfile per entry and one SendBatchBytes, so that encode and
// wire time show separately.
func (e *env) send(ctx context.Context, l *lane, c *hbbp.FleetClient, epoch uint64,
	profs []*hbbp.StoredProfile, parent, trace uint64) error {
	if c == nil {
		l.count(errors.New("no connection"))
		return errors.New("no connection")
	}
	h := l.start(spanSend, parent, trace)
	var err error
	if l.tracing {
		items := make([]hbbp.FleetBatchItem, len(profs))
		for i, sp := range profs {
			eh := l.start(spanEncode, h.id, trace)
			var buf bytes.Buffer
			err = hbbp.SaveProfile(&buf, sp)
			eh.stop()
			if err != nil {
				break
			}
			items[i] = hbbp.FleetBatchItem{Epoch: epoch, Payload: buf.Bytes()}
		}
		if err == nil {
			bh := l.start(spanSendBytes, h.id, trace)
			err = c.SendBatchBytes(ctx, items)
			bh.stop()
		}
	} else {
		err = c.SendBatch(ctx, epoch, profs)
	}
	h.stop()
	l.count(err)
	return err
}

// window runs one FleetServer.Window query and, when keep is set,
// keeps its result for verification. It reports whether the query
// returned a result.
func (e *env) window(p *phase, l *lane, since, until uint64, keep bool, parent, trace uint64) bool {
	h := l.start(spanWindow, parent, trace)
	prof, spans := e.srv.Window(tenant, since, until)
	h.stop()
	if len(spans) == 0 {
		l.count(fmt.Errorf("window [%d, %d] is empty", since, until))
		return false
	}
	l.count(nil)
	if keep {
		p.mu.Lock()
		p.samples = append(p.samples, windowSample{since: since, until: until, prof: prof, spans: spans,
			liveEpoch: until, liveAcked: len(e.acked[until])})
		p.mu.Unlock()
	}
	return true
}

// scrape renders the server's registry as hbbpd's /metrics would.
func (e *env) scrape(l *lane, parent, trace uint64) {
	h := l.start(spanScrape, parent, trace)
	err := e.reg.WriteProm(io.Discard)
	h.stop()
	l.count(err)
}

// keepSample selects the queries kept for verification: the 1st, 2nd,
// 4th, 8th... of a phase, so short runs verify too and long runs keep
// a logarithmic number of results.
func keepSample(n int) bool { return n&(n-1) == 0 }

// pipeline: two agents at scale 1 in a closed loop. Each epoch both
// agents profile the rotation's next workload, derive its mix, capture
// it and send it; then one Window query over the whole history and one
// scrape. Both agents run the same workload so that an epoch's wall
// does not depend on which workloads the seeded order happens to pair.
// The phase ends on a whole number of rotations, so every rotation
// workload is profiled equally often.
func (e *env) pipeline(ctx context.Context, p *phase) {
	coord := p.lanes[0]
	var clients [2]*hbbp.FleetClient
	// Dials and closes run on the coordinator, outside the epochs, so
	// the epoch spans stay the only roots of the traced phase.
	for a := range clients {
		clients[a] = e.dial(ctx, coord, e.agents[a][0], 0, 0)
	}
	n := len(e.subjects)
	var acked [2]int64
	windows := 0
	for rot := 0; ; rot++ {
		p.units.add(rot, unitWork{})
		for k := 0; k < n; k++ {
			epoch := e.nextEpoch
			e.nextEpoch++
			tq := p.trace()
			eh := coord.start(spanEpoch, 0, tq)
			traces := [2]uint64{p.trace(), p.trace()}
			var ok [2]bool
			idx := [2]int{k, k}
			var wg sync.WaitGroup
			for a := range clients {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					ok[a] = e.agentEpoch(ctx, p, p.lanes[a+1], clients[a], epoch, idx[a], eh.id, traces[a])
				}(a)
			}
			wg.Wait()
			var done unitWork
			for a := range ok {
				if ok[a] {
					e.acked[epoch] = append(e.acked[epoch], idx[a])
					acked[a]++
					done.acked++
					done.minst += e.subjects[idx[a]].minst
					done.ops++
				}
			}
			windows++
			if e.window(p, coord, 0, epoch, keepSample(windows), eh.id, tq) {
				done.ops++
			}
			e.scrape(coord, eh.id, tq)
			eh.stop()
			p.units.add(rot, done)
		}
		if time.Since(p.t0) >= e.cfg.seconds || ctx.Err() != nil {
			p.units.add(rot+1, unitWork{})
			break
		}
	}
	for a, c := range clients {
		if c != nil {
			e.closeClient(p, coord, c, acked[a], 0, 0)
		}
	}
}

// agentEpoch is one agent's work for one epoch. It reports whether the
// profile was acknowledged; a mix that differs from set-up's or
// strays from the reference is a failed operation.
func (e *env) agentEpoch(ctx context.Context, p *phase, l *lane, c *hbbp.FleetClient,
	epoch uint64, i int, parent, trace uint64) bool {
	s := e.subjects[i]
	ah := l.start(spanAgent, parent, trace)
	defer ah.stop()
	h := l.start(spanProfile, ah.id, trace)
	prof, err := e.sess.Profile(ctx, s.w)
	h.stop()
	if !l.count(err) {
		return false
	}
	h = l.start(spanMix, ah.id, trace)
	mix := hbbp.InstructionMix(prof, hbbp.ViewOptions{})
	h.stop()
	l.count(nil)
	h = l.start(spanCapture, ah.id, trace)
	sp, err := hbbp.CaptureProfile(prof, s.name)
	h.stop()
	if !l.count(err) {
		return false
	}
	if e.send(ctx, l, c, epoch, []*hbbp.StoredProfile{sp}, ah.id, trace) != nil {
		return false
	}
	p.checks.Add(1)
	if errPct := mixError(s.ref, mix); !sameMix(mix, s.mix) || errPct != s.errPct || errPct > mixErrorGate {
		p.fail(fmt.Errorf("epoch %d: %s mix error %.4f%%, set-up measured %.4f%% (gate %d%%)",
			epoch, s.name, errPct, s.errPct, mixErrorGate))
	}
	return true
}

// ingest: two clients in a closed loop, each cycling agent identities:
// Dial, one SendBatch of ingestBatch pool captures for the current
// epoch, Close. A new epoch starts every batchesPerEpoch batches; the
// client that opens it first scrapes the server's registry and reads
// the epoch just closed. That read is one Window over a single epoch,
// so it costs a snapshot and no history merge: the workload stays the
// write path.
func (e *env) ingest(ctx context.Context, p *phase) {
	var batch atomic.Int64
	base := e.nextEpoch
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := p.lanes[g]
			rng := rand.New(rand.NewSource(e.cfg.seed*1009 + int64(p.index)*31 + int64(g)))
			for i := 0; time.Since(p.t0) < e.cfg.seconds && ctx.Err() == nil; i++ {
				b := batch.Add(1) - 1
				unit := int(b / batchesPerEpoch)
				epoch := base + uint64(unit)
				p.units.add(unit, unitWork{})
				if b%batchesPerEpoch == 0 && epoch > 0 {
					tq := p.trace()
					if e.window(p, l, epoch-1, epoch-1, false, 0, tq) {
						p.units.add(unit, unitWork{ops: 1})
					}
					e.scrape(l, 0, tq)
				}
				tr := p.trace()
				ch := l.start(spanCycle, 0, tr)
				c := e.dial(ctx, l, e.agents[g][i%len(e.agents[g])], ch.id, tr)
				if c != nil {
					idx, profs := e.draw(rng, ingestBatch)
					var acked int64
					if e.send(ctx, l, c, epoch, profs, ch.id, tr) == nil {
						acked = ingestBatch
						done := unitWork{acked: acked, ops: 1}
						for _, j := range idx {
							done.minst += e.subjects[j].minst
						}
						p.units.add(unit, done)
					}
					e.closeClient(p, l, c, acked, ch.id, tr)
				}
				ch.stop()
			}
		}(g)
	}
	wg.Wait()
	e.nextEpoch = base + uint64(batch.Load()/batchesPerEpoch) + 1
}

// query: one client runs a seeded sequence of groups. A group is one
// write and three reads in a seeded order; the reads are Windows over
// the last 2 epochs (direct merge, no tree), the last 16 and the whole
// history. A write is a SendBatch of writeBatch pool captures; every
// epochWrites groups open a new epoch (with a scrape). Each epoch is
// one unit of the same 4*epochWrites operations, so units differ only
// in the history they read.
func (e *env) query(ctx context.Context, p *phase) {
	l := p.lanes[0]
	rng := rand.New(rand.NewSource(e.cfg.seed*7919 + int64(p.index)))
	c := e.dial(ctx, l, e.agents[0][0], 0, 0)
	cur := e.nextEpoch
	reads := 0
	var acked int64
	unit := 0
	p.units.add(unit, unitWork{})
	// The phase ends on an epoch boundary, so the last epoch counts.
	for g := 1; ; g++ {
		for _, op := range rng.Perm(4) {
			tr := p.trace()
			if op == 0 {
				idx, profs := e.draw(rng, writeBatch)
				if e.send(ctx, l, c, cur, profs, 0, tr) == nil {
					e.acked[cur] = append(e.acked[cur], idx...)
					acked += writeBatch
					done := unitWork{acked: writeBatch, ops: 1}
					for _, j := range idx {
						done.minst += e.subjects[j].minst
					}
					p.units.add(unit, done)
				}
				continue
			}
			since := [...]uint64{cur - 1, cur - 15, 0}[op-1]
			reads++
			if e.window(p, l, since, cur, keepSample(reads), 0, tr) {
				p.units.add(unit, unitWork{ops: 1})
			}
		}
		if g%epochWrites != 0 {
			continue
		}
		e.scrape(l, 0, p.trace())
		cur++
		unit++
		p.units.add(unit, unitWork{})
		if time.Since(p.t0) >= e.cfg.seconds || ctx.Err() != nil {
			break
		}
	}
	e.nextEpoch = cur
	if c != nil {
		e.closeClient(p, l, c, acked, 0, 0)
	}
}

// verify runs the phase's correctness gates, untimed, after the phase:
// every kept Window result must serialize to the same bytes as
// MergeProfiles over exactly the acked profiles of its spans, and the
// server's ledger must account for every profile the clients had
// acknowledged.
func (e *env) verify(p *phase) {
	p.checks.Add(int64(len(p.samples)) + 1)
	for _, s := range p.samples {
		var profs []*hbbp.StoredProfile
		for _, sp := range s.spans {
			for ep := sp.Start; ep <= sp.End; ep++ {
				idx := e.acked[ep]
				if ep == s.liveEpoch {
					idx = idx[:s.liveAcked]
				}
				for _, i := range idx {
					profs = append(profs, e.subjects[i].stored)
				}
			}
		}
		if e.cfg.dropAck && len(profs) > 0 {
			profs = profs[1:]
		}
		got, err1 := encode(s.prof)
		want, err2 := encode(hbbp.MergeProfiles(profs...))
		if err := errors.Join(err1, err2); err != nil {
			p.fail(err)
		} else if !bytes.Equal(got, want) {
			p.fail(fmt.Errorf("window [%d, %d] over %d spans differs from the merge of its %d acked profiles",
				s.since, s.until, len(s.spans), len(profs)))
		}
	}
	acked := p.acked
	if e.cfg.dropAck {
		acked--
	}
	m := p.merged
	switch {
	case int64(m.Merged) != acked:
		p.fail(fmt.Errorf("server merged %d profiles, clients were acked %d", m.Merged, acked))
	case m.Shed != p.clients.OverloadNacks || m.Rejected != p.clients.RejectedNacks:
		p.fail(fmt.Errorf("server shed %d and rejected %d, clients saw %d and %d refusals",
			m.Shed, m.Rejected, p.clients.OverloadNacks, p.clients.RejectedNacks))
	case m.Corrupt != 0:
		p.fail(fmt.Errorf("server counted %d corrupt frames on a clean loopback", m.Corrupt))
	}
}

func encode(sp *hbbp.StoredProfile) ([]byte, error) {
	var b bytes.Buffer
	err := hbbp.SaveProfile(&b, sp)
	return b.Bytes(), err
}
