package fleetserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"hbbp/internal/profstore"
)

// testProfile builds a small canonical profile whose content is a
// deterministic function of rng — distinct draws merge into distinct
// aggregates, so accounting mistakes change bytes.
func testProfile(rng *rand.Rand, unit string) *profstore.Profile {
	modules := []string{"a.out", "libm.so", "vmlinux"}
	funcs := []string{"main", "step", "solve", "inner"}
	mnemonics := []string{"add", "mov", "vaddps", "div", "call"}
	raw := &profstore.Profile{
		Workloads: []profstore.WorkloadWeight{{Name: unit, Runs: 1}},
	}
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		raw.Blocks = append(raw.Blocks, profstore.Block{
			Unit:     unit,
			Module:   modules[rng.Intn(len(modules))],
			Function: funcs[rng.Intn(len(funcs))],
			Addr:     uint64(rng.Intn(32)) * 16,
			Ring:     profstore.RingUser,
			Len:      uint32(1 + rng.Intn(12)),
			Count:    uint64(1 + rng.Intn(100000)),
		})
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		raw.Ops = append(raw.Ops, profstore.OpMass{
			Mnemonic: mnemonics[rng.Intn(len(mnemonics))],
			Ring:     profstore.RingUser,
			Mass:     uint64(1 + rng.Intn(1000000)),
		})
	}
	return profstore.Canonical(raw)
}

// saveBytes serializes a profile; tests compare profiles by their
// stored bytes so "bit-identical" means exactly that.
func saveBytes(t testing.TB, p *profstore.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profstore.Save(&buf, p); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// startServer runs a server on a loopback listener and tears it down
// with the test.
func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := Serve(ln, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// tenantStats fetches one tenant's ledger from a stats snapshot.
func tenantStats(t testing.TB, s *Server, name string) TenantStats {
	t.Helper()
	for _, ts := range s.Stats().Tenants {
		if ts.Tenant == name {
			return ts
		}
	}
	t.Fatalf("tenant %q not in stats", name)
	return TenantStats{}
}

// TestSingleAgentRoundTrip pins the happy path: profiles sent by one
// agent land in the tenant/epoch aggregator, and the snapshot is
// bit-identical to an offline merge of what was acked.
func TestSingleAgentRoundTrip(t *testing.T) {
	s := startServer(t, Config{})
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(1))
	var sent []*profstore.Profile
	for i := 0; i < 5; i++ {
		p := testProfile(rng, "gcc")
		if err := c.Send(ctx, 7, p); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		sent = append(sent, p)
	}

	got := s.Snapshot("acme", 7)
	if got == nil {
		t.Fatal("no snapshot for acme/7")
	}
	want := profstore.Merge(sent...)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
		t.Fatal("snapshot diverges from offline merge of the acked profiles")
	}

	st := c.Stats()
	if st.Acked != 5 || st.Sent != 5 || st.Dials != 1 {
		t.Fatalf("client stats = %+v, want 5 acked over 1 dial", st)
	}
	ts := tenantStats(t, s, "acme")
	if ts.Merged != 5 || ts.Duplicates != 0 || ts.Shed != 0 || ts.Rejected != 0 || ts.Corrupt != 0 {
		t.Fatalf("tenant ledger = %+v, want 5 clean merges", ts)
	}
	if len(ts.Epochs) != 1 || ts.Epochs[0] != 7 {
		t.Fatalf("epochs = %v, want [7]", ts.Epochs)
	}
}

// TestTenantAndEpochIsolation pins that the (tenant, epoch) key really
// partitions state: same agent names in different tenants, same
// profiles in different epochs, nothing bleeds.
func TestTenantAndEpochIsolation(t *testing.T) {
	s := startServer(t, Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	pA, pB := testProfile(rng, "gcc"), testProfile(rng, "povray")

	for _, tc := range []struct {
		tenant string
		epoch  uint64
		p      *profstore.Profile
	}{{"acme", 1, pA}, {"umbrella", 1, pB}, {"acme", 2, pB}} {
		c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: tc.tenant, Agent: "host-1"})
		if err != nil {
			t.Fatalf("dial %s: %v", tc.tenant, err)
		}
		if err := c.Send(ctx, tc.epoch, tc.p); err != nil {
			t.Fatalf("send %s/%d: %v", tc.tenant, tc.epoch, err)
		}
		c.Close()
	}

	if got := s.Snapshot("acme", 1); !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(pA))) {
		t.Error("acme/1 diverged")
	}
	if got := s.Snapshot("umbrella", 1); !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(pB))) {
		t.Error("umbrella/1 diverged")
	}
	if got := s.Snapshot("acme", 2); !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(pB))) {
		t.Error("acme/2 diverged")
	}
	if s.Snapshot("acme", 3) != nil || s.Snapshot("nobody", 1) != nil {
		t.Error("unknown tenant/epoch should snapshot nil")
	}
}

// TestConcurrentAgents drives many agents in parallel into one
// tenant/epoch and asserts the aggregate equals the offline merge —
// the wire tier must not weaken the aggregator's any-parallelism
// equivalence. Run with -race.
func TestConcurrentAgents(t *testing.T) {
	s := startServer(t, Config{})
	ctx := context.Background()
	const agents, each = 16, 8

	profiles := make([][]*profstore.Profile, agents)
	for a := range profiles {
		rng := rand.New(rand.NewSource(int64(100 + a)))
		for i := 0; i < each; i++ {
			profiles[a] = append(profiles[a], testProfile(rng, "gcc"))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			c, err := Dial(ctx, s.Addr().String(), ClientConfig{
				Tenant: "acme", Agent: fmt.Sprintf("host-%d", a)})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i, p := range profiles[a] {
				if err := c.Send(ctx, 1, p); err != nil {
					errs <- fmt.Errorf("agent %d send %d: %w", a, i, err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var all []*profstore.Profile
	for _, ps := range profiles {
		all = append(all, ps...)
	}
	if !bytes.Equal(saveBytes(t, s.Snapshot("acme", 1)), saveBytes(t, profstore.Merge(all...))) {
		t.Fatal("concurrent wire ingest diverges from offline merge")
	}
	if ts := tenantStats(t, s, "acme"); ts.Merged != agents*each {
		t.Fatalf("merged = %d, want %d", ts.Merged, agents*each)
	}
}

// TestBadProfileRejected pins the rejection path: an intact frame
// carrying unloadable payload bytes nacks permanently, is counted, and
// does not poison the connection or the agent's sequence ledger.
func TestBadProfileRejected(t *testing.T) {
	s := startServer(t, Config{})
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if err := c.SendBytes(ctx, 1, []byte("not a stored profile")); !errors.Is(err, ErrRejected) {
		t.Fatalf("bad payload error = %v, want ErrRejected", err)
	}
	// The same connection still serves good profiles afterwards.
	rng := rand.New(rand.NewSource(3))
	p := testProfile(rng, "gcc")
	if err := c.Send(ctx, 1, p); err != nil {
		t.Fatalf("send after rejection: %v", err)
	}
	ts := tenantStats(t, s, "acme")
	if ts.Rejected != 1 || ts.Merged != 1 {
		t.Fatalf("ledger = %+v, want 1 rejected + 1 merged", ts)
	}
	if st := c.Stats(); st.RejectedNacks != 1 || st.Dials != 1 {
		t.Fatalf("client stats = %+v, want 1 rejection on the original dial", st)
	}
	if !bytes.Equal(saveBytes(t, s.Snapshot("acme", 1)), saveBytes(t, profstore.Merge(p))) {
		t.Fatal("rejection leaked into merged state")
	}
}

// TestWelcomeResumeAcrossClients pins the handshake resume point: a
// fresh client reusing an agent identity adopts the server's sequence
// ledger instead of colliding with it.
func TestWelcomeResumeAcrossClients(t *testing.T) {
	s := startServer(t, Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4))

	c1, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1"})
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	var sent []*profstore.Profile
	for i := 0; i < 3; i++ {
		p := testProfile(rng, "gcc")
		if err := c1.Send(ctx, 1, p); err != nil {
			t.Fatalf("c1 send %d: %v", i, err)
		}
		sent = append(sent, p)
	}
	c1.Close()

	// Same agent identity, fresh client: its numbering must continue
	// past the server's ledger, not restart at 1.
	c2, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1"})
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer c2.Close()
	for i := 0; i < 2; i++ {
		p := testProfile(rng, "gcc")
		if err := c2.Send(ctx, 1, p); err != nil {
			t.Fatalf("c2 send %d: %v", i, err)
		}
		sent = append(sent, p)
	}

	ts := tenantStats(t, s, "acme")
	if ts.Merged != 5 || ts.Duplicates != 0 {
		t.Fatalf("ledger = %+v, want 5 merges and no duplicates", ts)
	}
	if !bytes.Equal(saveBytes(t, s.Snapshot("acme", 1)), saveBytes(t, profstore.Merge(sent...))) {
		t.Fatal("resumed client diverged from offline merge")
	}
}

// TestClientConfigValidation pins that identity is required up front.
func TestClientConfigValidation(t *testing.T) {
	_, err := Dial(context.Background(), "127.0.0.1:1", ClientConfig{Tenant: "", Agent: "a"})
	if err == nil {
		t.Fatal("empty tenant accepted")
	}
	_, err = Dial(context.Background(), "127.0.0.1:1", ClientConfig{Tenant: "t", Agent: ""})
	if err == nil {
		t.Fatal("empty agent accepted")
	}
}

// TestDialRetriesUntilCancel pins that Dial keeps retrying an
// unreachable server under its backoff policy until the context says
// stop, and surfaces both the cancellation and the last cause.
func TestDialRetriesUntilCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	// A listener that never accepts a handshake: reserve a port, close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = Dial(ctx, addr, ClientConfig{Tenant: "t", Agent: "a",
		BackoffBase: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial error = %v, want deadline exceeded", err)
	}
}

// TestDialGivesUpAfterMaxAttempts pins the bounded retry budget.
func TestDialGivesUpAfterMaxAttempts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = Dial(context.Background(), addr, ClientConfig{Tenant: "t", Agent: "a",
		MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}

// TestSendAfterClose pins the closed-client sentinel.
func TestSendAfterClose(t *testing.T) {
	s := startServer(t, Config{})
	c, err := Dial(context.Background(), s.Addr().String(), ClientConfig{Tenant: "t", Agent: "a"})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	rng := rand.New(rand.NewSource(5))
	if err := c.Send(context.Background(), 1, testProfile(rng, "gcc")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("send after close = %v, want ErrClientClosed", err)
	}
}

// TestStatsSorted pins the deterministic ordering of the stats view.
func TestStatsSorted(t *testing.T) {
	s := startServer(t, Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(6))
	for _, tenant := range []string{"zeta", "alpha", "mid"} {
		c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: tenant, Agent: "a"})
		if err != nil {
			t.Fatal(err)
		}
		for _, epoch := range []uint64{9, 2, 5} {
			if err := c.Send(ctx, epoch, testProfile(rng, "gcc")); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
	st := s.Stats()
	if len(st.Tenants) != 3 {
		t.Fatalf("tenants = %d, want 3", len(st.Tenants))
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if st.Tenants[i].Tenant != want {
			t.Fatalf("tenant order = %v", st.Tenants)
		}
		if got := st.Tenants[i].Epochs; len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
			t.Fatalf("epoch order = %v, want [2 5 9]", got)
		}
	}
}
