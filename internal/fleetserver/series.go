package fleetserver

import (
	"math"

	"hbbp/internal/profstore"
	"hbbp/internal/tsstore"
)

// Epoch rolling: the time axis of the ingest tier.
//
// Every tenant is a series. Each merge advances the tenant's epoch
// clock and rolls every completed epoch (older than the clock by at
// least EpochLag) out of its live aggregator into the tenant's
// tsstore.Series, which Config.Retention then downsamples. The zero
// Retention is the keep-everything ladder "1:0": every rolled epoch
// stays a width-1 window, so only the newest EpochLag epochs hold
// aggregators. Rolling preserves the ingest tier's keystone invariant:
// a rolled epoch's window is bit-identical to the flat merge of its
// acked profiles (the Aggregator contract), and tsstore folding is
// lossless by construction, so any windowed query remains
// bit-identical to the flat merge of the acked profiles in those
// epochs — before, during and after folds.
//
// A late profile for an already-rolled epoch is not refused: it lands
// in a fresh aggregator for that epoch and rolls again on the next
// merge, merging into the series window that already covers the epoch
// (tsstore.AppendEpoch's late-arrival path). Exactly-once still holds
// — dedup is per (agent, seq), independent of epochs.

// roll folds the tenant's completed epochs into its series and
// downsamples. Called by ingest workers after each merge.
func (s *Server) roll(t *tenant, epoch uint64) {
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

// Snapshot returns the merged profile for one tenant and epoch — a
// canonical profile bit-identical to profstore.Merge over exactly the
// profiles acked into that pair — or nil if the server cannot answer
// for that epoch alone. It answers for a live epoch, for a rolled
// epoch still kept as a width-1 window (every rolled epoch under the
// zero Retention, the raw band under a ladder) and for late arrivals
// merged into either. It returns nil for an epoch nothing was merged
// into, and for one the ladder folded into a wider window: that
// window's merge would be a plausible wrong answer. Query folded
// history through [Server.Window], whose spans say what was included.
// Safe during ingestion; see profstore.Aggregator.Snapshot for the
// consistency contract.
func (s *Server) Snapshot(tenantName string, epoch uint64) *profstore.Profile {
	axis := s.axis(tenantName, epoch, epoch)
	if spans := axis.Spans(); len(spans) != 1 || spans[0] != (tsstore.Span{Start: epoch, End: epoch}) {
		return nil
	}
	p, _ := axis.At(0)
	return p
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
	out := t.series.Range(since, until)
	for e, ent := range t.epochs {
		if (since <= e && e <= until) || out.Covers(e) {
			out.AppendEpochInterned(e, ent.agg.SnapshotInterned())
		}
	}
	return out
}
