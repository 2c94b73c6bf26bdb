package fleetserver

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hbbp/internal/profstore"
	"hbbp/internal/telemetry"
	"hbbp/internal/tsstore"
)

// rollConfig is the retention setup the roll tests use: tiny bands so
// folds happen within a few epochs.
func rollConfig() Config {
	return Config{
		Retention: tsstore.Retention{Levels: []tsstore.Level{
			{Width: 1, Keep: 2}, {Width: 4},
		}},
	}
}

// sendEpochs delivers n profiles per epoch over [0, epochs) and
// returns every sent profile grouped by epoch.
func sendEpochs(t *testing.T, s *Server, tenant string, epochs uint64, perEpoch int, seed int64) map[uint64][]*profstore.Profile {
	t.Helper()
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: tenant, Agent: "roller"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed))
	sent := map[uint64][]*profstore.Profile{}
	for e := uint64(0); e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			p := testProfile(rng, "gcc")
			if err := c.Send(ctx, e, p); err != nil {
				t.Fatalf("send epoch %d: %v", e, err)
			}
			sent[e] = append(sent[e], p)
		}
	}
	return sent
}

// TestEpochRollBoundsMemory pins the daemon-memory property: with
// retention configured, old epochs leave the live aggregator map and
// fold into a bounded series, while every windowed query remains
// bit-identical to the flat offline merge of exactly the acked
// profiles in those epochs.
func TestEpochRollBoundsMemory(t *testing.T) {
	s := startServer(t, rollConfig())
	const epochs = 40
	sent := sendEpochs(t, s, "acme", epochs, 3, 1)

	ts := tenantStats(t, s, "acme")
	// Live epochs: the lagged epoch plus at most what in-flight skips
	// left behind — with sends long settled, that is epochs > horizon,
	// i.e. at most EpochLag+1 entries (defaults: lag 1 → epochs 38, 39).
	if len(ts.Epochs) > 2 {
		t.Fatalf("live epochs = %v; rolling is not draining the aggregator map", ts.Epochs)
	}
	if len(ts.Windows) == 0 {
		t.Fatal("no retained windows in stats")
	}
	// Retained windows stay near the ladder's steady state (2 raw +
	// ~ceil(38/4) wide + slop), nowhere near one per epoch.
	if got := len(ts.Windows) + len(ts.Epochs); got > 16 {
		t.Fatalf("%d windows+epochs retained over %d epochs; folding is not bounding memory", got, epochs)
	}

	// Full-range windowed query == flat merge of everything acked.
	var all []*profstore.Profile
	for _, ps := range sent {
		all = append(all, ps...)
	}
	got, spans := s.Window("acme", 0, epochs-1)
	if len(spans) == 0 {
		t.Fatal("full-range query matched no spans")
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(all...))) {
		t.Fatal("windowed query diverges from flat merge of the acked profiles")
	}

	// Aligned sub-queries are exact per epoch range too.
	for _, span := range [][2]uint64{{0, 3}, {4, 11}, {0, epochs - 1}} {
		var flat []*profstore.Profile
		for e := span[0]; e <= span[1]; e++ {
			flat = append(flat, sent[e]...)
		}
		got, _ := s.Window("acme", span[0], span[1])
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(flat...))) {
			t.Fatalf("Window(%d,%d) diverges from flat merge of those epochs", span[0], span[1])
		}
	}
}

// TestWindowedQueryStableAcrossFolds pins that a fold changes the
// store's granularity, never a query's bytes: the same aligned query
// answers identically before and after later epochs force old raw
// windows to fold coarser.
func TestWindowedQueryStableAcrossFolds(t *testing.T) {
	s := startServer(t, rollConfig())
	// 5 epochs: 0..3 are rolled but still raw (the fold horizon has
	// not passed them), 4 is live.
	sendEpochs(t, s, "acme", 5, 2, 2)
	before, beforeSpans := s.Window("acme", 0, 3)
	if len(beforeSpans) != 4 {
		t.Fatalf("spans before the fold = %v, want 4 raw epochs", beforeSpans)
	}

	// More epochs: the [0,3] range ages past the raw band and folds.
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "late-waves"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for e := uint64(5); e < 24; e++ {
		if err := c.Send(ctx, e, testProfile(rng, "gcc")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	after, afterSpans := s.Window("acme", 0, 3)
	if !bytes.Equal(saveBytes(t, before), saveBytes(t, after)) {
		t.Fatal("aligned query changed across a fold")
	}
	// The granularity did change: fewer, coarser spans.
	if len(afterSpans) >= len(beforeSpans) {
		t.Fatalf("expected coarser spans after fold: before %v after %v", beforeSpans, afterSpans)
	}
}

// TestLateArrivalToRolledEpoch pins that a profile for an epoch
// already folded out of the live map still lands exactly once and is
// visible to queries — the roll path cannot strand stragglers.
func TestLateArrivalToRolledEpoch(t *testing.T) {
	s := startServer(t, rollConfig())
	sent := sendEpochs(t, s, "acme", 20, 1, 4)
	var all []*profstore.Profile
	for _, ps := range sent {
		all = append(all, ps...)
	}

	// Epoch 2 rolled long ago. Deliver one more profile to it.
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "straggler"})
	if err != nil {
		t.Fatal(err)
	}
	late := testProfile(rand.New(rand.NewSource(5)), "llvm")
	if err := c.Send(ctx, 2, late); err != nil {
		t.Fatalf("late send: %v", err)
	}
	c.Close()
	all = append(all, late)

	got, _ := s.Window("acme", 0, 19)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(all...))) {
		t.Fatal("late arrival lost or double-counted across the roll")
	}
}

// TestSeriesSnapshotCoversEverything pins SeriesSnapshot's contract:
// rolled windows plus live epochs, merged, equals the flat merge of
// all acked profiles; an unknown tenant yields an empty series.
func TestSeriesSnapshotCoversEverything(t *testing.T) {
	s := startServer(t, rollConfig())
	sent := sendEpochs(t, s, "acme", 12, 2, 6)
	var all []*profstore.Profile
	for _, ps := range sent {
		all = append(all, ps...)
	}
	series := s.SeriesSnapshot("acme")
	if !bytes.Equal(saveBytes(t, series.Merged()), saveBytes(t, profstore.Merge(all...))) {
		t.Fatal("series snapshot diverges from flat merge")
	}
	if s.SeriesSnapshot("nobody").Len() != 0 {
		t.Error("unknown tenant's series not empty")
	}
}

// TestRollingOffKeepsHistoricalBehavior pins the default: without
// retention, every epoch's aggregator stays live and per-epoch
// Snapshot still answers for all of them.
func TestRollingOffKeepsHistoricalBehavior(t *testing.T) {
	s := startServer(t, Config{})
	sent := sendEpochs(t, s, "acme", 10, 1, 7)
	ts := tenantStats(t, s, "acme")
	if len(ts.Epochs) != 10 {
		t.Fatalf("live epochs = %v, want all 10", ts.Epochs)
	}
	if len(ts.Windows) != 0 {
		t.Fatalf("windows = %v, want none without retention", ts.Windows)
	}
	for e := uint64(0); e < 10; e++ {
		got := s.Snapshot("acme", e)
		if got == nil {
			t.Fatalf("no snapshot for epoch %d", e)
		}
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(sent[e]...))) {
			t.Fatalf("epoch %d snapshot diverges", e)
		}
	}
	// Window still works without retention: it sees the live epochs.
	got, spans := s.Window("acme", 3, 6)
	var flat []*profstore.Profile
	for e := uint64(3); e <= 6; e++ {
		flat = append(flat, sent[e]...)
	}
	if len(spans) != 4 {
		t.Fatalf("spans = %v", spans)
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(flat...))) {
		t.Fatal("windowed query over live epochs diverges")
	}
}

// TestWindowMatchesSeriesSnapshot pins the range-scoped Window to the
// whole-axis contract it shortcuts: once ingest quiesces, Window
// answers every range byte for byte — profile and spans — as
// SeriesSnapshot().Window does, with rolling on (folded windows plus
// live epochs, ranges with and without the live epochs) and off (live
// epochs only), including empty, inverted and out-of-history ranges.
func TestWindowMatchesSeriesSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"rolling", rollConfig()},
		{"rolling-off", Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const epochs = 24
			s := startServer(t, tc.cfg)
			sendEpochs(t, s, "acme", epochs, 2, 8)
			full := s.SeriesSnapshot("acme")
			ts := tenantStats(t, s, "acme")
			if tc.cfg.rolling() && (len(ts.Windows) == 0 || len(ts.Epochs) == 0) {
				t.Fatalf("want rolled windows and a live epoch, got windows %v, epochs %v",
					ts.Windows, ts.Epochs)
			}
			rng := rand.New(rand.NewSource(9))
			ranges := [][2]uint64{{0, epochs - 1}, {0, epochs - 3}, {epochs - 1, epochs - 1},
				{epochs + 2, epochs + 5}, {5, 4}}
			for k := 0; k < 60; k++ {
				a, b := uint64(rng.Intn(epochs+2)), uint64(rng.Intn(epochs+2))
				ranges = append(ranges, [2]uint64{min(a, b), max(a, b)})
			}
			for _, r := range ranges {
				got, gotSpans := s.Window("acme", r[0], r[1])
				want, wantSpans := full.Window(r[0], r[1])
				if !reflect.DeepEqual(gotSpans, wantSpans) {
					t.Fatalf("Window(%d,%d) spans %v, series snapshot says %v", r[0], r[1], gotSpans, wantSpans)
				}
				if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
					t.Fatalf("Window(%d,%d) diverges from the series snapshot's", r[0], r[1])
				}
			}
			if p, spans := s.Window("nobody", 0, epochs); len(spans) != 0 || len(p.Blocks) != 0 {
				t.Error("unknown tenant's window not empty")
			}
		})
	}
}

// TestWindowDuringIngest queries while an agent ingests and the server
// rolls and folds epochs. Window merges shared interned windows after
// dropping the tenant lock while rolls replace them, which the race
// detector checks; once ingest ends, the answer is the flat merge of
// everything acked.
func TestWindowDuringIngest(t *testing.T) {
	const epochs = 24
	s := startServer(t, rollConfig())
	ctx := context.Background()
	errc := make(chan error, 1)
	var sent []*profstore.Profile // the sender's until it reports on errc
	go func() {
		c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "roller"})
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(10))
		for e := uint64(0); e < epochs; e++ {
			batch := []*profstore.Profile{testProfile(rng, "gcc"), testProfile(rng, "gcc")}
			if err := c.SendBatch(ctx, e, batch); err != nil {
				errc <- err
				return
			}
			sent = append(sent, batch...)
		}
		errc <- nil
	}()
	for {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
			got, _ := s.Window("acme", 0, epochs)
			if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(sent...))) {
				t.Fatal("window after ingest diverges from the flat merge of the acked profiles")
			}
			return
		default:
			s.Window("acme", 0, epochs)
		}
	}
}

// TestWindowCountsEveryQuery pins hbbp_tsstore_window_queries_total to
// one count per Server.Window call with a non-inverted range — for a
// known tenant and for an unknown one alike, whose answer is the empty
// series' empty window.
func TestWindowCountsEveryQuery(t *testing.T) {
	queries := telemetry.Default().Counter("hbbp_tsstore_window_queries_total", "Windowed queries answered.")
	s := startServer(t, Config{})
	sendEpochs(t, s, "acme", 2, 1, 2)
	for _, tenant := range []string{"acme", "nobody"} {
		before := queries.Value()
		p, spans := s.Window(tenant, 0, 10)
		if got := queries.Value() - before; got != 1 {
			t.Errorf("Window(%q): window queries rose by %d, want 1", tenant, got)
		}
		if tenant == "nobody" && (len(p.Blocks) != 0 || spans != nil) {
			t.Errorf("Window(unknown tenant) = %d blocks, spans %v; want empty", len(p.Blocks), spans)
		}
	}
}
