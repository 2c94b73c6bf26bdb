package profstore

import "sync"

// Aggregator merges profiles online: many goroutines ingest while
// readers take consistent snapshots, the live counterpart of [Merge]
// for fleets of concurrent sessions.
//
// It has no merge engine of its own. An [Interned] is immutable, so
// ingested profiles are kept by reference in a pending queue behind
// one merged prefix, and [MergeInterned] — the fold every other fleet
// merge runs — compacts the queue into the prefix once the queue holds
// as many rows as the prefix (and at least the fold's growth-cap
// floor). The pending profiles are merged among themselves first, so
// the fold's growth cap sees per-profile sizes: an epoch of many
// disjoint units goes to the chunk tournament instead of rebuilding a
// large accumulator once per profile. Re-merging the prefix never
// costs more than the queue that triggered it, so each ingested row is
// re-merged an amortized constant number of times.
//
// One mutex orders ingests against snapshots: a snapshot reflects
// every Ingest that returned before the call and no partial one. A
// snapshot copies the prefix and queue references under the lock and
// merges outside it.
//
// Integer merge is exact, commutative and associative, so a Snapshot
// is bit-identical to Merge over the same profiles — at any ingestion
// parallelism, in any arrival order.
type Aggregator struct {
	mu          sync.Mutex
	prefix      *Interned   // every compacted profile, merged; nil before the first compaction
	pending     []*Interned // ingested since the last compaction; never rewritten in place
	pendingRows int
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Ingest folds one profile into the aggregator: IngestInterned of its
// interned form. Safe for any number of concurrent callers; each call
// is atomic with respect to Snapshot. Nil profiles are ignored.
func (a *Aggregator) Ingest(p *Profile) {
	if p == nil {
		return
	}
	a.IngestInterned(Intern(p))
}

// IngestInterned folds an interned profile in — the wire-ingest path.
// The profile is kept without a copy (an Interned is immutable), so
// the call is an append unless it triggers a compaction.
func (a *Aggregator) IngestInterned(in *Interned) {
	if in == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pending = append(a.pending, in)
	a.pendingRows += in.rows()
	prefixRows := 0
	if a.prefix != nil {
		prefixRows = a.prefix.rows()
	}
	if a.pendingRows >= max(prefixRows, growthCapFor(0)) {
		a.prefix = MergeInterned(a.prefix, MergeInterned(a.pending...))
		// A fresh queue, not a truncated one: snapshots still read the
		// old backing array outside the lock.
		a.pending, a.pendingRows = nil, 0
	}
}

// Snapshot returns the merged view of everything ingested so far, as a
// canonical profile: SnapshotInterned, materialized.
func (a *Aggregator) Snapshot() *Profile { return a.SnapshotInterned().Profile() }

// SnapshotInterned returns the merged view of everything ingested so
// far in interned form, for callers that keep merging — the fleet
// tier's epoch roll and window queries — without a string round trip.
// It is consistent: every Ingest that returned before the call is
// fully included, and no in-flight Ingest is partially visible. With
// nothing pending it returns the prefix itself.
func (a *Aggregator) SnapshotInterned() *Interned {
	a.mu.Lock()
	prefix, pending := a.prefix, a.pending
	a.mu.Unlock()
	if len(pending) > 0 {
		return MergeInterned(prefix, MergeInterned(pending...))
	}
	if prefix == nil {
		return &Interned{}
	}
	return prefix
}
