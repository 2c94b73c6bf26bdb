package profstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// disjointProfile is randomProfile with every string suffixed by tag,
// so profiles with different tags share no symbol at all.
func disjointProfile(rng *rand.Rand, tag int) *Profile {
	p := randomProfile(rng).Clone()
	sfx := fmt.Sprintf("#%d", tag)
	for i := range p.Workloads {
		p.Workloads[i].Name += sfx
	}
	for i := range p.Blocks {
		b := &p.Blocks[i]
		b.Unit, b.Module, b.Function = b.Unit+sfx, b.Module+sfx, b.Function+sfx
	}
	for i := range p.Ops {
		p.Ops[i].Mnemonic += sfx
	}
	return Canonical(p)
}

// TestMergeInternedMatchesMerge pins the index-keyed merge to the
// string-keyed one: over random fan-ins of 0 to 300 profiles —
// overlapping keys with private tables, one table shared by pointer,
// fully disjoint tables, nil inputs sprinkled in, and a disjoint
// fan-in past the fold's growth cap — MergeInterned of the interned
// inputs materializes deeply equal to Merge of the profiles and
// serializes to the same bytes, and no input is modified.
func TestMergeInternedMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type shape struct {
		name     string
		disjoint bool
		shared   bool
	}
	shapes := []shape{
		{name: "overlapping"},
		{name: "shared-table", shared: true},
		{name: "disjoint", disjoint: true},
	}
	sawCap := false
	for trial := 0; trial < 36; trial++ {
		sh := shapes[trial%len(shapes)]
		n := rng.Intn(301)
		if trial < len(shapes) {
			n = trial // fan-ins of 0, 1 and 2 on the first pass
		}
		profiles := make([]*Profile, n)
		for i := range profiles {
			if sh.disjoint {
				profiles[i] = disjointProfile(rng, i)
			} else {
				profiles[i] = randomProfile(rng)
			}
		}
		ins := make([]*Interned, n)
		for i, p := range profiles {
			ins[i] = Intern(p)
		}
		if sh.shared && n > 0 {
			// One table for every input, shared by pointer: the union of
			// all of them, so most inputs also carry symbols they never
			// reference — as an aggregator snapshot's table can.
			union := unionTables(ins)
			for i, in := range ins {
				ins[i] = in.remapped(union, remapInto(in.syms, union))
			}
		}
		// Nil inputs are ignored by both merges.
		for k := rng.Intn(4); k > 0; k-- {
			at := rng.Intn(len(profiles) + 1)
			profiles = append(profiles[:at], append([]*Profile{nil}, profiles[at:]...)...)
			ins = append(ins[:at], append([]*Interned{nil}, ins[at:]...)...)
		}
		before := make([][]byte, len(ins))
		rows, maxRows := 0, 0
		for i, in := range ins {
			if in != nil {
				before[i] = mustBytes(t, in.Profile())
				rows += in.rows()
				maxRows = max(maxRows, in.rows())
			}
		}
		if sh.disjoint && rows > growthCapFor(maxRows) {
			sawCap = true
		}

		what := fmt.Sprintf("trial %d (%s, fan-in %d)", trial, sh.name, n)
		equalProfiles(t, what, MergeInterned(ins...).Profile(), Merge(profiles...))
		for i, in := range ins {
			if in != nil && string(mustBytes(t, in.Profile())) != string(before[i]) {
				t.Fatalf("%s: input %d modified by MergeInterned", what, i)
			}
		}
	}
	if !sawCap {
		t.Error("no disjoint fan-in outgrew the fold's growth cap; the chunked tournament went untested")
	}
}

// TestSnapshotInternedMatchesSnapshot pins the aggregator's interned
// snapshot to its materialized one and to the offline merge, over a
// short random stream and over streams that cross the compaction point
// several times, ingested alternately as profiles and interned.
func TestSnapshotInternedMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	random := make([]*Profile, 50)
	for i := range random {
		random[i] = randomProfile(rng)
	}
	sets := compactionSets(rng)
	sets["random"] = random
	for name, profiles := range sets {
		agg := NewAggregator()
		for i, p := range profiles {
			if i%2 == 0 {
				agg.Ingest(p)
			} else {
				agg.IngestInterned(Intern(p))
			}
		}
		want := Merge(profiles...)
		equalProfiles(t, name+": SnapshotInterned", agg.SnapshotInterned().Profile(), want)
		equalProfiles(t, name+": Snapshot", agg.Snapshot(), want)
	}
}

// TestSnapshotUnchangedByLaterIngests pins that a snapshot is the
// caller's to keep: the aggregator shares its merged prefix and its
// queued profiles with the snapshots it hands out, so no later ingest
// or compaction may write to them. Snapshots are taken right after
// every compaction (the prefix itself), after the first ingest (a lone
// queued profile) and every 16th ingest (a fresh merge), and each
// still serializes to its original bytes once every stream has gone
// through several compactions. A second goroutine snapshots throughout,
// so under -race every compaction can overlap a snapshot merging the
// queue outside the lock.
func TestSnapshotUnchangedByLaterIngests(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type taken struct {
		snap  *Interned
		bytes []byte
	}
	take := func(agg *Aggregator) taken {
		s := agg.SnapshotInterned()
		b, err := AppendSave(nil, s.Profile())
		if err != nil {
			panic(err)
		}
		return taken{s, b}
	}
	for name, profiles := range compactionSets(rng) {
		agg := NewAggregator()
		done := make(chan struct{})
		concurrent := make(chan []taken)
		go func() {
			var out []taken
			for {
				select {
				case <-done:
					concurrent <- out
					return
				default:
					out = append(out, take(agg))
				}
			}
		}()
		var snaps []taken
		for i, p := range profiles {
			before := agg.prefix
			agg.IngestInterned(Intern(p))
			if agg.prefix != before || i%16 == 0 {
				snaps = append(snaps, take(agg))
			}
		}
		close(done)
		snaps = append(snaps, <-concurrent...)
		for i, s := range snaps {
			if string(mustBytes(t, s.snap.Profile())) != string(s.bytes) {
				t.Fatalf("%s: snapshot %d changed under later ingests", name, i)
			}
		}
	}
}
