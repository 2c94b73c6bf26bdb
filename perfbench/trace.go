package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names: one per façade call the benchmark makes, plus the
// benchmark's own grouping spans (epoch, agent, cycle) whose self time
// is the loop's glue between calls.
const (
	spanEpoch     = "epoch" // pipeline: both agents' work for one epoch, then the query
	spanAgent     = "agent" // pipeline: one agent's profile, mix, capture and send
	spanCycle     = "cycle" // ingest: one agent identity's dial, send and close
	spanProfile   = "core.profile"
	spanMix       = "analyzer.mix"
	spanCapture   = "profstore.capture"
	spanDial      = "fleetclient.dial"
	spanSend      = "fleetclient.send" // SendBatch; encode + send_bytes when traced
	spanEncode    = "profstore.encode"
	spanSendBytes = "fleetclient.send_bytes"
	spanClose     = "fleetclient.close"
	spanWindow    = "fleetserver.window"
	spanScrape    = "telemetry.scrape"
)

// span is one timed call. Start and End are nanoseconds since the
// phase began. Trace is shared by every span of one agent-epoch, one
// ingest cycle or one query operation; Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Lane   int    `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// lane is the recorder of one goroutine of a phase. It always keeps
// per-name duration samples (the end-to-end latencies come from them);
// it keeps spans only when tracing. Not safe for concurrent use: each
// load goroutine owns one lane.
type lane struct {
	idx     int
	t0      time.Time
	tracing bool
	next    uint64
	spans   []span
	samples map[string][]time.Duration

	attempted, failed int64
}

func newLane(idx int, t0 time.Time, tracing bool) *lane {
	return &lane{idx: idx, t0: t0, tracing: tracing, samples: make(map[string][]time.Duration)}
}

// handle is an open timed call.
type handle struct {
	l    *lane
	name string
	i    int // index into l.spans, -1 when not tracing
	id   uint64
	t    time.Time
}

// start opens a timed call under parent (0 for a root).
func (l *lane) start(name string, parent, trace uint64) handle {
	h := handle{l: l, name: name, i: -1}
	if l.tracing {
		l.next++
		h.id = uint64(l.idx+1)<<40 | l.next
		h.i = len(l.spans)
		l.spans = append(l.spans, span{Name: name, ID: h.id, Parent: parent, Trace: trace, Lane: l.idx})
	}
	h.t = time.Now()
	if h.i >= 0 {
		l.spans[h.i].Start = int64(h.t.Sub(l.t0))
	}
	return h
}

// stop closes the call and records its duration.
func (h handle) stop() time.Duration {
	now := time.Now()
	d := now.Sub(h.t)
	if h.i >= 0 {
		h.l.spans[h.i].End = int64(now.Sub(h.l.t0))
	}
	h.l.samples[h.name] = append(h.l.samples[h.name], d)
	return d
}

// count records one attempted operation and whether it failed; it
// returns true when err is nil.
func (l *lane) count(err error) bool {
	l.attempted++
	if err != nil {
		l.failed++
		return false
	}
	return true
}

// writeSpans writes the spans one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pathTable is the blocking-path split of a traced phase: per span
// name, the self time on the path and the number of calls on it.
type pathTable struct {
	wall  time.Duration
	self  map[string]time.Duration
	calls map[string]int
	lanes int // lanes whose root spans were averaged into the table
}

// total is the summed self time along the blocking path.
func (t pathTable) total() time.Duration {
	var s time.Duration
	for _, d := range t.self {
		s += d
	}
	return s
}

// blockingPath splits a traced phase into self times along the path
// the phase waited on. A span's self time is its duration minus the
// part its children cover. Where children overlap (the two pipeline
// agents), the path follows the child that finished last; the others
// ran in its shadow. Root spans are grouped by lane; lanes that run
// side by side (the ingest clients) each form a path of their own, and
// the table is their average.
func blockingPath(spans []span, wall time.Duration) pathTable {
	children := make(map[uint64][]*span)
	var roots []*span
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	}
	t := pathTable{wall: wall, self: make(map[string]time.Duration), calls: make(map[string]int)}
	var walk func(s *span)
	walk = func(s *span) {
		kids := children[s.ID]
		t.self[s.Name] += time.Duration(s.End-s.Start) - time.Duration(covered(kids, s.Start, s.End))
		t.calls[s.Name]++
		for i := 0; i < len(kids); {
			// One cluster of mutually overlapping children: follow the
			// one that ended last.
			last, end := kids[i], kids[i].End
			j := i + 1
			for ; j < len(kids) && kids[j].Start < end; j++ {
				if kids[j].End > end {
					last, end = kids[j], kids[j].End
				}
			}
			walk(last)
			i = j
		}
	}
	lanes := make(map[int]bool)
	for _, r := range roots {
		lanes[r.Lane] = true
		walk(r)
	}
	t.lanes = len(lanes)
	if t.lanes > 1 {
		for k, d := range t.self {
			t.self[k] = d / time.Duration(t.lanes)
		}
		for k, n := range t.calls {
			t.calls[k] = n / t.lanes
		}
	}
	return t
}

// covered is the length of the union of the spans' intervals clipped
// to [lo, hi]. The spans are sorted by start.
func covered(spans []*span, lo, hi int64) int64 {
	var sum, curS, curE int64
	open := false
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b <= a {
			continue
		}
		if open && a <= curE {
			curE = max(curE, b)
			continue
		}
		if open {
			sum += curE - curS
		}
		curS, curE, open = a, b, true
	}
	if open {
		sum += curE - curS
	}
	return sum
}

// render prints the table, largest share first. split adds "of which"
// rows under a span name: the server-side and tsstore shares measured
// by the program's own telemetry.
func (t pathTable) render(w io.Writer, split map[string][]splitRow) {
	names := make([]string, 0, len(t.self))
	for k := range t.self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if t.self[names[i]] != t.self[names[j]] {
			return t.self[names[i]] > t.self[names[j]]
		}
		return names[i] < names[j]
	})
	wall := t.wall.Seconds()
	fmt.Fprintf(w, "  %-26s %10s %8s %8s\n", "layer (self time)", "ms", "share", "calls")
	for _, k := range names {
		ms := t.self[k].Seconds() * 1e3
		fmt.Fprintf(w, "  %-26s %10.1f %7.2f%% %8d\n", k, ms, 100*ms/1e3/wall, t.calls[k])
		for _, r := range split[k] {
			sub := ms * r.share
			fmt.Fprintf(w, "    of which %-17s %10.1f %7.2f%%\n", r.name, sub, 100*sub/1e3/wall)
		}
	}
	total := t.total().Seconds()
	fmt.Fprintf(w, "  %-26s %10.1f %7.2f%%   (traced wall %.1f ms, %d path lane(s))\n",
		"sum on blocking path", total*1e3, 100*total/wall, wall*1e3, t.lanes)
}

// splitRow is one "of which" row: a named share of a span's self time.
type splitRow struct {
	name  string
	share float64
}
