package profstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// benchProfiles builds n distinct single-run profiles of realistic
// size (a few hundred blocks, a few dozen ops) with overlapping keys.
func benchProfiles(n int) []*Profile {
	rng := rand.New(rand.NewSource(42))
	out := make([]*Profile, n)
	for i := range out {
		raw := &Profile{Workloads: []WorkloadWeight{{Name: "bench", Runs: 1}}}
		for b := 0; b < 300; b++ {
			raw.Blocks = append(raw.Blocks, Block{
				Unit:     "bench",
				Module:   "a.out",
				Function: [4]string{"main", "step", "solve", "inner"}[b%4],
				Addr:     uint64(b) * 32,
				Ring:     uint8(b & 1),
				Len:      uint32(1 + b%24),
				Count:    uint64(rng.Intn(1_000_000)),
			})
		}
		for o := 0; o < 48; o++ {
			raw.Ops = append(raw.Ops, OpMass{
				Mnemonic: [6]string{"add", "mov", "vaddps", "div", "jz", "call"}[o%6],
				Ring:     uint8(o & 1),
				Mass:     uint64(rng.Intn(10_000_000)),
			})
		}
		out[i] = Canonical(raw)
	}
	return out
}

// benchmarkIngest measures aggregator ingestion throughput at a fixed
// writer count: b.N total ingests split across the writers, so
// ns/op is directly comparable between the variants.
func benchmarkIngest(b *testing.B, writers int) {
	profiles := benchProfiles(8)
	agg := NewAggregator()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				agg.Ingest(profiles[i%len(profiles)])
			}
		}()
	}
	for i := 0; i < b.N; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

func BenchmarkAggregatorIngest1Writers(b *testing.B)  { benchmarkIngest(b, 1) }
func BenchmarkAggregatorIngest8Writers(b *testing.B)  { benchmarkIngest(b, 8) }
func BenchmarkAggregatorIngest64Writers(b *testing.B) { benchmarkIngest(b, 64) }

// BenchmarkAggregatorIngestDisjoint measures one epoch of many
// disjoint units: each op ingests 1,000 interned profiles, each its
// own unit (300 blocks, 48 ops), into a fresh aggregator and takes one
// SnapshotInterned. Every profile brings new keys, so this is the
// regime where folding each ingest into one growing accumulator goes
// quadratic.
func BenchmarkAggregatorIngestDisjoint(b *testing.B) {
	profiles := benchProfiles(1000)
	ins := make([]*Interned, len(profiles))
	for i, p := range profiles {
		unit := fmt.Sprintf("unit-%04d", i)
		p = p.Clone()
		p.Workloads[0].Name = unit
		for j := range p.Blocks {
			p.Blocks[j].Unit = unit
		}
		ins[i] = Intern(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := NewAggregator()
		for _, in := range ins {
			agg.IngestInterned(in)
		}
		if s := agg.SnapshotInterned(); s.rows() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkMerge1000Profiles measures the offline fleet merge: one
// thousand single-run profiles into one canonical fleet profile.
func BenchmarkMerge1000Profiles(b *testing.B) {
	profiles := benchProfiles(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := Merge(profiles...); len(m.Blocks) == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkAppendSave measures the client-side encode of one
// single-run profile (300 blocks, 48 ops): its translation to interned
// form plus the flat dump, into a reused buffer.
func BenchmarkAppendSave(b *testing.B) {
	p := benchProfiles(1)[0]
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendSave(buf[:0], p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot measures snapshot cost on a loaded aggregator —
// the pause ingestion pays when a reader asks for the fleet view.
func BenchmarkSnapshot(b *testing.B) {
	profiles := benchProfiles(64)
	agg := NewAggregator()
	for _, p := range profiles {
		agg.Ingest(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := agg.Snapshot(); len(s.Blocks) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkSaveLoad measures the codec round trip on a merged fleet
// profile.
func BenchmarkSaveLoad(b *testing.B) {
	merged := Merge(benchProfiles(64)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Save(&buf, merged); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
