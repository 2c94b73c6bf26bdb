package main

import (
	"fmt"
	"io"
	"time"
)

// endToEndUnits and perLayerUnits name each reported metric's unit. The end-to-end list is
// what an untraced run's JSON line carries and the per-layer list what
// a traced run's carries, in print order; BENCHMARK.json lists the
// same names and units (the smoke test holds the two together).
var endToEndUnits = []nameUnit{
	{"setup_s", "s"},
	{"sim_minst_per_s", "MInst/s"},
	{"mix_error_pct", "%"},
	{"overhead_pct", "%"},
	{"profiles_per_s", "1/s"},
	{"ack_ms_p50", "ms"},
	{"query_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"live_heap_mb", "MB"},
}

var perLayerUnits = []nameUnit{
	{"workloads.build_s", "s"},
	{"harness.train_s", "s"},
	{"harness.runcache_hits", "count"},
	{"harness.runcache_requests", "count"},
	{"harness.runcache_hit_ratio", "ratio"},
	{"sde.reference_s", "s"},
	{"core.profile_ms_p50", "ms"},
	{"core.profile_self_share", "ratio"},
	{"collector.sim_minst", "MInst"},
	{"collector.pmis", "count"},
	{"collector.lost", "count"},
	{"analyzer.mix_ms_p50", "ms"},
	{"profstore.capture_ms_p50", "ms"},
	{"profstore.encode_us_per_profile", "us"},
	{"profstore.merges_interned", "count"},
	{"profstore.merges", "count"},
	{"profstore.merge_interned_share", "ratio"},
	{"fleetserver.dial_ms_p50", "ms"},
	{"fleetserver.send_ms_p50", "ms"},
	{"fleetserver.send_ms_p90", "ms"},
	{"fleetserver.server_batch_ms_mean", "ms"},
	{"fleetwire.transport_ms", "ms"},
	{"tsstore.downsample_ms_total", "ms"},
	{"tsstore.folds", "count"},
	{"tsstore.epoch_appends", "count"},
	{"fleetserver.window_ms_p50", "ms"},
	{"tsstore.window_ms_mean", "ms"},
	{"tsstore.window_spans_mean", "count"},
	{"fleetserver.snapshot_ms", "ms"},
	{"tsstore.tree_hits", "count"},
	{"tsstore.tree_lookups", "count"},
	{"tsstore.tree_hit_ratio", "ratio"},
	{"tsstore.tree_combines", "count"},
	{"fleetserver.merged", "count"},
	{"fleetserver.duplicates", "count"},
	{"fleetserver.shed", "count"},
	{"fleetserver.rejected", "count"},
	{"fleetserver.corrupt", "count"},
	{"fleetclient.retries", "count"},
	{"fleetclient.conn_errors", "count"},
	{"telemetry.scrape_ms", "ms"},
	{"trace.path_coverage", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

type nameUnit struct{ name, unit string }

// e2eReport is one phase's end-to-end metrics plus the lines only the
// human-readable output carries: failed_share and the tail percentile
// the sample count supports.
type e2eReport struct {
	metrics map[string]metric
	notes   []string
}

func fill(units []nameUnit, values map[string]float64) map[string]metric {
	m := make(map[string]metric, len(units))
	for _, nu := range units {
		m[nu.name] = metric{Value: values[nu.name], Unit: nu.unit}
	}
	return m
}

// endToEnd computes a phase's end-to-end metrics.
func (e *env) endToEnd(p *phase, setup setupTimes) e2eReport {
	wall := p.wall.Seconds()
	acks, queries := p.samplesOf(spanSend), p.samplesOf(spanWindow)
	errPct, ovhPct := e.subjectMeans()
	v := map[string]float64{
		"setup_s":         setup.wall.Seconds(),
		"sim_minst_per_s": p.rate(func(w unitWork) float64 { return w.minst }),
		"mix_error_pct":   errPct,
		"overhead_pct":    ovhPct,
		"profiles_per_s":  p.rate(func(w unitWork) float64 { return float64(w.acked) }),
		"ack_ms_p50":      quantile(acks, 0.5),
		"query_ms_p50":    quantile(queries, 0.5),
		"ops_per_s":       p.rate(func(w unitWork) float64 { return float64(w.ops) }),
		"live_heap_mb":    p.heapMB,
	}
	r := e2eReport{metrics: fill(endToEndUnits, v)}
	attempted, failed := p.counts()
	failed += int64(len(p.gates))
	r.notes = append(r.notes,
		fmt.Sprintf("%-22s %14.6g %-8s (%d failed of %d attempted)", "failed_share",
			ratio(float64(failed), float64(attempted)), "ratio", failed, attempted),
		tailNote("ack_ms", acks), tailNote("query_ms", queries),
		fmt.Sprintf("phase wall %.3f s, %d profiles acked, %d sends, %d queries, %d whole units (rates are their median)",
			wall, p.acked, len(acks), len(queries), max(len(p.units.start)-1, 0)))
	return r
}

// tailNote reports the highest percentile with ten samples beyond it.
func tailNote(prefix string, samples []time.Duration) string {
	name, q := tailPercentile(len(samples))
	return fmt.Sprintf("%-22s %14.6g %-8s (n=%d)", prefix+"_"+name, quantile(samples, q), "ms", len(samples))
}

func printEndToEnd(w io.Writer, title string, r e2eReport) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, nu := range endToEndUnits {
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", nu.name, r.metrics[nu.name].Value, nu.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// perLayer computes the traced phase's per-layer metrics: timings of
// façade calls from the spans, counters from the program's telemetry
// diffed across the phase, and ledgers from the Stats calls.
func (e *env) perLayer(p *phase, setup setupTimes, path pathTable, plain, traced e2eReport) map[string]metric {
	// The collection layers run in the timed phase only on pipeline;
	// elsewhere their calls are the set-up's pool captures.
	collect := func(name string) []time.Duration {
		if s := p.samplesOf(name); len(s) > 0 {
			return s
		}
		return e.setupRun.samples[name]
	}
	var sim float64
	var pmis, lost uint64
	for _, s := range e.subjects {
		sim += s.minst
		pmis += s.pmis
		lost += s.lost
	}
	d, srv := p.def, p.srv
	interned := d[`hbbp_profstore_merge_total{path="interned"}`]
	merges := interned + d[`hbbp_profstore_merge_total{path="two_pointer"}`]
	hits := d[`hbbp_tsstore_tree_cache_total{result="hit"}`]
	lookups := hits + d[`hbbp_tsstore_tree_cache_total{result="miss"}`]
	serverBatch := 1e3 * srv.histMean(`hbbp_fleetserver_ingest_seconds{frame="batch"}`)
	tsWindow := 1e3 * d.histMean(`hbbp_tsstore_window_seconds{}`)
	wall := p.wall.Seconds()
	v := map[string]float64{
		"workloads.build_s":                setup.build.Seconds(),
		"harness.train_s":                  setup.train.Seconds(),
		"harness.runcache_hits":            setup.cacheHits,
		"harness.runcache_requests":        setup.cacheReqs,
		"harness.runcache_hit_ratio":       ratio(setup.cacheHits, setup.cacheReqs),
		"sde.reference_s":                  setup.reference.Seconds(),
		"core.profile_ms_p50":              quantile(collect(spanProfile), 0.5),
		"core.profile_self_share":          path.self[spanProfile].Seconds() / wall,
		"collector.sim_minst":              sim,
		"collector.pmis":                   float64(pmis),
		"collector.lost":                   float64(lost),
		"analyzer.mix_ms_p50":              quantile(collect(spanMix), 0.5),
		"profstore.capture_ms_p50":         quantile(collect(spanCapture), 0.5),
		"profstore.encode_us_per_profile":  1e3 * meanMs(p.samplesOf(spanEncode)),
		"profstore.merges_interned":        interned,
		"profstore.merges":                 merges,
		"profstore.merge_interned_share":   ratio(interned, merges),
		"fleetserver.dial_ms_p50":          quantile(p.samplesOf(spanDial), 0.5),
		"fleetserver.send_ms_p50":          quantile(p.samplesOf(spanSend), 0.5),
		"fleetserver.send_ms_p90":          quantile(p.samplesOf(spanSend), 0.9),
		"fleetserver.server_batch_ms_mean": serverBatch,
		"fleetwire.transport_ms":           meanMs(p.samplesOf(spanSendBytes)) - serverBatch,
		"tsstore.downsample_ms_total":      1e3 * d[`hbbp_tsstore_downsample_seconds{}:sum`],
		"tsstore.folds":                    d[`hbbp_tsstore_retention_folds_total{}`],
		"tsstore.epoch_appends":            d[`hbbp_tsstore_epoch_appends_total{}`],
		"fleetserver.window_ms_p50":        quantile(p.samplesOf(spanWindow), 0.5),
		"tsstore.window_ms_mean":           tsWindow,
		"tsstore.window_spans_mean":        d.histMean(`hbbp_tsstore_window_spans{}`),
		"fleetserver.snapshot_ms":          meanMs(p.samplesOf(spanWindow)) - tsWindow,
		"tsstore.tree_hits":                hits,
		"tsstore.tree_lookups":             lookups,
		"tsstore.tree_hit_ratio":           ratio(hits, lookups),
		"tsstore.tree_combines":            d[`hbbp_tsstore_tree_combines_total{}`],
		"fleetserver.merged":               float64(p.merged.Merged),
		"fleetserver.duplicates":           float64(p.merged.Duplicates),
		"fleetserver.shed":                 float64(p.merged.Shed),
		"fleetserver.rejected":             float64(p.merged.Rejected),
		"fleetserver.corrupt":              float64(p.merged.Corrupt),
		"fleetclient.retries":              float64(p.clients.Retries),
		"fleetclient.conn_errors":          float64(p.clients.ConnErrors),
		"telemetry.scrape_ms":              meanMs(p.samplesOf(spanScrape)),
		"trace.path_coverage":              path.total().Seconds() / wall,
		"trace.overhead_pct":               overheadPct(plain, traced),
		"trace.spans":                      float64(len(p.spans())),
	}
	return fill(perLayerUnits, v)
}

// overheadPct is the throughput the traced phase lost against the
// untraced one, in percent of the untraced ops_per_s.
func overheadPct(plain, traced e2eReport) float64 {
	u := plain.metrics["ops_per_s"].Value
	return 100 * ratio(u-traced.metrics["ops_per_s"].Value, u)
}

// printLayers prints the traced phase's blocking-path table, its
// per-layer metrics and the tracing overhead on every end-to-end
// metric.
func printLayers(w io.Writer, p *phase, path pathTable, layers map[string]metric,
	plain, traced e2eReport, nspans int, spansOut string) {
	fmt.Fprintf(w, "blocking path of the traced phase (%d spans written to %s):\n", nspans, spansOut)
	var sendBytes, windows time.Duration
	for _, d := range p.samplesOf(spanSendBytes) {
		sendBytes += d
	}
	for _, d := range p.samplesOf(spanWindow) {
		windows += d
	}
	server := p.srv[`hbbp_fleetserver_ingest_seconds{frame="batch"}:sum`]
	tsWindow := p.def[`hbbp_tsstore_window_seconds{}:sum`]
	srvShare := min(1, ratio(server, sendBytes.Seconds()))
	tsShare := min(1, ratio(tsWindow, windows.Seconds()))
	path.render(w, map[string][]splitRow{
		spanSendBytes: {{"server", srvShare}, {"transport", 1 - srvShare}},
		spanWindow:    {{"tsstore window", tsShare}, {"snapshot", 1 - tsShare}},
	})
	fmt.Fprintln(w, "per-layer (traced):")
	for _, nu := range perLayerUnits {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", nu.name, layers[nu.name].Value, nu.unit)
	}
	fmt.Fprintln(w, "tracing overhead (traced minus untraced):")
	for _, nu := range endToEndUnits {
		u, t := plain.metrics[nu.name].Value, traced.metrics[nu.name].Value
		fmt.Fprintf(w, "  %-22s %14.6g -> %-14.6g %+8.2f%%\n", nu.name, u, t, 100*ratio(t-u, u))
	}
}
