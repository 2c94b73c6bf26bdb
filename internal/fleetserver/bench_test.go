package fleetserver

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"hbbp/internal/profstore"
	"hbbp/internal/tsstore"
)

// benchWireIngest measures sustained wire ingest over TCP loopback:
// `agents` concurrent clients, each its own connection, delivering
// pre-serialized profiles as fast as the server acks them. Compare
// against BenchmarkAggregatorIngest* (internal/profstore) to read the
// wire tier's overhead on top of the in-memory merge.
func benchWireIngest(b *testing.B, agents int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s := Serve(ln, Config{Queue: 256})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	rng := rand.New(rand.NewSource(1))
	payload := saveBytes(b, testProfile(rng, "gcc"))
	ctx := context.Background()

	clients := make([]*Client, agents)
	for a := range clients {
		c, err := Dial(ctx, ln.Addr().String(), ClientConfig{
			Tenant: "bench", Agent: fmt.Sprintf("agent-%d", a)})
		if err != nil {
			b.Fatal(err)
		}
		clients[a] = c
		defer c.Close()
	}

	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	errs := make(chan error, agents)
	per := b.N / agents
	extra := b.N % agents
	for a := 0; a < agents; a++ {
		n := per
		if a < extra {
			n++
		}
		go func(c *Client, n int) {
			var err error
			for i := 0; i < n && err == nil; i++ {
				err = c.SendBytes(ctx, 1, payload)
			}
			errs <- err
		}(clients[a], n)
	}
	for a := 0; a < agents; a++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

func BenchmarkWireIngest1Agent(b *testing.B)   { benchWireIngest(b, 1) }
func BenchmarkWireIngest8Agents(b *testing.B)  { benchWireIngest(b, 8) }
func BenchmarkWireIngest64Agents(b *testing.B) { benchWireIngest(b, 64) }

// BenchmarkServerWindow measures the fleet query path end to end
// inside the server: a Window over the last 16 epochs of a tenant
// whose 64-epoch history is rolled through DefaultRetention (raw,
// 4:1 and 16:1 windows) and whose newest epoch is still live with 64
// profiles, so every query pays the live-epoch snapshot as well as
// the merge of the covered series windows.
func BenchmarkServerWindow(b *testing.B) {
	const epochs, perEpoch = 64, 64
	s := startServer(b, Config{Retention: tsstore.DefaultRetention()})
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "bench", Agent: "roller"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(1))
	pool := make([]*profstore.Profile, 8)
	for i := range pool {
		pool[i] = windowBenchProfile(rng, fmt.Sprintf("unit%d", i))
	}
	batch := make([]*profstore.Profile, perEpoch)
	for e := uint64(0); e < epochs; e++ {
		for i := range batch {
			batch[i] = pool[rng.Intn(len(pool))]
		}
		if err := c.SendBatch(ctx, e, batch); err != nil {
			b.Fatal(err)
		}
	}
	if st := tenantStats(b, s, "bench"); len(st.Epochs) != 1 || len(st.Windows) == 0 {
		b.Fatalf("want one live epoch over a rolled series, got epochs %v, %d windows",
			st.Epochs, len(st.Windows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, _ := s.Window("bench", epochs-16, epochs-1); len(p.Blocks) == 0 {
			b.Fatal("empty window")
		}
	}
}

// windowBenchProfile builds one unit's capture: 256 blocks over 16
// functions and 32 ops — mid-size, like a registry workload's.
func windowBenchProfile(rng *rand.Rand, unit string) *profstore.Profile {
	p := &profstore.Profile{Workloads: []profstore.WorkloadWeight{{Name: unit, Runs: 1}}}
	for i := 0; i < 256; i++ {
		p.Blocks = append(p.Blocks, profstore.Block{
			Unit: unit, Module: "a.out", Function: fmt.Sprintf("f%02d", i%16),
			Addr: uint64(0x1000 + 32*i), Len: uint32(1 + rng.Intn(12)),
			Count: uint64(1 + rng.Intn(1<<12)),
		})
	}
	for i := 0; i < 32; i++ {
		p.Ops = append(p.Ops, profstore.OpMass{
			Mnemonic: fmt.Sprintf("op%02d", i), Ring: uint8(i % 2), Mass: uint64(1 + rng.Intn(1<<16)),
		})
	}
	return profstore.Canonical(p)
}
