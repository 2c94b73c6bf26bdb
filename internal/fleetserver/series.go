package fleetserver

import (
	"math"

	"hbbp/internal/profstore"
	"hbbp/internal/tsstore"
)

// Epoch rolling: the time axis of the ingest tier.
//
// Without retention, a tenant's epochs map grows one aggregator per
// epoch forever — fine for a test run, unbounded for a daemon. With
// Config.Retention set, each merge advances the tenant's epoch clock
// and rolls every completed epoch (older than the clock by at least
// EpochLag) out of its live aggregator into a tsstore.Series, which
// the ladder then downsamples. Rolling preserves the ingest tier's
// keystone invariant: a rolled epoch's snapshot is bit-identical to
// the flat merge of its acked profiles (the Aggregator contract), and
// tsstore folding is lossless by construction, so any windowed query
// remains bit-identical to the flat merge of the acked profiles in
// those epochs — before, during and after folds.
//
// A late profile for an already-rolled epoch is not refused: it lands
// in a fresh aggregator for that epoch and rolls again on the next
// merge, merging into the series window that already covers the epoch
// (tsstore.AppendEpoch's late-arrival path). Exactly-once still holds
// — dedup is per (agent, seq), independent of epochs.

// roll folds the tenant's completed epochs into its series and
// downsamples. Called by ingest workers after each merge; a no-op
// unless rolling is configured.
func (s *Server) roll(t *tenant, epoch uint64) {
	if !s.cfg.rolling() {
		return
	}
	t.mu.Lock()
	if epoch > t.maxEpoch {
		t.maxEpoch = epoch
	}
	if t.maxEpoch < s.cfg.EpochLag {
		t.mu.Unlock()
		return
	}
	horizon := t.maxEpoch - s.cfg.EpochLag // newest complete epoch
	rolled := false
	for e, ent := range t.epochs {
		// Skip epochs with merges in flight: a worker holding the
		// entry's aggregator must not have it snapshotted away beneath
		// it. The skipped epoch is not stuck — that worker's own roll
		// call, after releaseEpoch, picks it up.
		if e > horizon || ent.inflight > 0 {
			continue
		}
		delete(t.epochs, e)
		if t.series == nil {
			t.series = &tsstore.Series{}
		}
		// Snapshot under t.mu: every new merge acquires the epoch via
		// acquireEpoch, which also needs t.mu, so nothing can slip into
		// this aggregator between the snapshot and the delete.
		t.series.AppendEpochInterned(e, ent.agg.SnapshotInterned())
		rolled = true
	}
	if rolled {
		t.series.Downsample(s.cfg.Retention, horizon)
	}
	t.mu.Unlock()
}

// SeriesSnapshot returns the tenant's full time axis as a series:
// every rolled window plus every still-live epoch appended as a raw
// window (snapshotting its aggregator), so the result covers all
// merged state regardless of roll timing. Returns an empty series for
// an unknown tenant. The returned series is the caller's own — safe
// to downsample, save or query without further locking.
func (s *Server) SeriesSnapshot(tenantName string) *tsstore.Series {
	return s.axis(tenantName, 0, math.MaxUint64)
}

// Window merges the tenant's state over the inclusive epoch range
// [since, until] — rolled windows and live epochs alike — into one
// canonical profile, returning the spans that contributed. The result
// is bit-identical to SeriesSnapshot(tenantName).Window(since, until),
// and so to the flat profstore.Merge of every acked profile in those
// spans. A nil profile is never returned; an empty overlap (or unknown
// tenant) yields an empty profile and no spans.
func (s *Server) Window(tenantName string, since, until uint64) (*profstore.Profile, []tsstore.Span) {
	return s.axis(tenantName, since, until).Window(since, until)
}

// axis collects the part of the tenant's time axis that overlaps
// [since, until] into a series the caller owns: the rolled windows
// overlapping the range (shared, not copied — windows are immutable)
// plus snapshots of the live epochs that land in them, which are the
// epochs inside the range and late epochs inside an overlapping rolled
// window. Only this collection runs under the tenant lock; merging is
// left to the caller. An unknown tenant yields an empty series.
func (s *Server) axis(tenantName string, since, until uint64) *tsstore.Series {
	s.mu.Lock()
	t := s.tenants[tenantName]
	s.mu.Unlock()
	if t == nil {
		return &tsstore.Series{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out *tsstore.Series
	if t.series != nil {
		out = t.series.Range(since, until)
	} else {
		out = &tsstore.Series{}
	}
	for e, ent := range t.epochs {
		if (since <= e && e <= until) || out.Covers(e) {
			out.AppendEpochInterned(e, ent.agg.SnapshotInterned())
		}
	}
	return out
}
