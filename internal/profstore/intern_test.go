package profstore

import (
	"fmt"
	"math/rand"
	"sort"
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

// messyProfile is randomProfile as a hand-assembling producer might
// send it: some keys split across duplicate rows, zero-mass rows (some
// naming strings no other row names), and the rows either shuffled or
// sorted, so that duplicates sit next to each other.
func messyProfile(rng *rand.Rand) *Profile {
	p := randomProfile(rng).Clone()
	for i := range p.Blocks {
		if b := p.Blocks[i]; b.Count > 1 && rng.Intn(3) == 0 {
			p.Blocks[i].Count -= b.Count / 2
			b.Count /= 2
			p.Blocks = append(p.Blocks, b)
		}
	}
	p.Blocks = append(p.Blocks, Block{Unit: "ghost", Module: "ghost.so", Function: "never", Addr: 16, Len: 1})
	if len(p.Blocks) > 1 {
		zero := p.Blocks[0]
		zero.Count = 0
		p.Blocks = append(p.Blocks, zero)
	}
	p.Workloads = append(p.Workloads, WorkloadWeight{Name: "ghost"})
	if rng.Intn(2) == 0 {
		p.Workloads = append(p.Workloads, p.Workloads[0])
	}
	p.Ops = append(p.Ops, OpMass{Mnemonic: "ghost", Ring: RingKernel})
	if len(p.Ops) > 1 && rng.Intn(2) == 0 {
		p.Ops = append(p.Ops, p.Ops[0])
	}
	if rng.Intn(2) == 0 {
		sort.SliceStable(p.Workloads, func(i, j int) bool { return p.Workloads[i].Name < p.Workloads[j].Name })
		sort.SliceStable(p.Blocks, func(i, j int) bool { return BlockKeyLess(&p.Blocks[i], &p.Blocks[j]) })
		sort.SliceStable(p.Ops, func(i, j int) bool { return OpKeyLess(&p.Ops[i], &p.Ops[j]) })
		return p
	}
	rng.Shuffle(len(p.Workloads), func(i, j int) { p.Workloads[i], p.Workloads[j] = p.Workloads[j], p.Workloads[i] })
	rng.Shuffle(len(p.Blocks), func(i, j int) { p.Blocks[i], p.Blocks[j] = p.Blocks[j], p.Blocks[i] })
	rng.Shuffle(len(p.Ops), func(i, j int) { p.Ops[i], p.Ops[j] = p.Ops[j], p.Ops[i] })
	return p
}

// referenceMerge is Merge written the obvious way, sharing no code
// with the interned kernel: sums in maps keyed by Block.key() and by
// (mnemonic, ring), zero-mass inputs dropped, each section sorted by
// the exported key orders.
func referenceMerge(profiles []*Profile) *Profile {
	type opKey struct {
		mnemonic string
		ring     uint8
	}
	runs := map[string]uint64{}
	blocks := map[Block]uint64{}
	ops := map[opKey]uint64{}
	for _, p := range profiles {
		if p == nil {
			continue
		}
		for _, w := range p.Workloads {
			if w.Runs != 0 {
				runs[w.Name] += w.Runs
			}
		}
		for i := range p.Blocks {
			if b := &p.Blocks[i]; b.Count != 0 {
				blocks[b.key()] += b.Count
			}
		}
		for _, o := range p.Ops {
			if o.Mass != 0 {
				ops[opKey{o.Mnemonic, o.Ring}] += o.Mass
			}
		}
	}
	out := &Profile{}
	for name, n := range runs {
		out.Workloads = append(out.Workloads, WorkloadWeight{Name: name, Runs: n})
	}
	sort.Slice(out.Workloads, func(i, j int) bool { return out.Workloads[i].Name < out.Workloads[j].Name })
	for b, n := range blocks {
		b.Count = n
		out.Blocks = append(out.Blocks, b)
	}
	sort.Slice(out.Blocks, func(i, j int) bool { return BlockKeyLess(&out.Blocks[i], &out.Blocks[j]) })
	for k, n := range ops {
		out.Ops = append(out.Ops, OpMass{Mnemonic: k.mnemonic, Ring: k.ring, Mass: n})
	}
	sort.Slice(out.Ops, func(i, j int) bool { return OpKeyLess(&out.Ops[i], &out.Ops[j]) })
	return out
}

// TestMergeMatchesReference checks Merge against referenceMerge over
// random fan-ins of 0 to 300 profiles that mix canonical inputs,
// messy ones (unsorted, duplicate keys, zero mass) and inputs of
// disjoint units — enough of them, at least once, that the fold must
// seal its accumulator past the growth cap. The results must be deeply
// equal and save to the same bytes.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sawCap := false
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(301)
		if trial < 3 {
			n = trial // fan-ins of 0, 1 and 2 first
		}
		profiles := make([]*Profile, n)
		maxRows := 0
		for i := range profiles {
			switch rng.Intn(3) {
			case 0:
				profiles[i] = randomProfile(rng)
			case 1:
				profiles[i] = messyProfile(rng)
			default:
				profiles[i] = disjointProfile(rng, i)
			}
			p := profiles[i]
			maxRows = max(maxRows, len(p.Workloads)+len(p.Blocks)+len(p.Ops))
		}
		want := referenceMerge(profiles)
		// Every key but the last input's was in the accumulator by the
		// last fold step, so past this bound the cap must have sealed it.
		if len(want.Workloads)+len(want.Blocks)+len(want.Ops) > growthCapFor(maxRows)+maxRows {
			sawCap = true
		}
		equalProfiles(t, fmt.Sprintf("trial %d (fan-in %d)", trial, n), Merge(profiles...), want)
	}
	if !sawCap {
		t.Error("no fan-in outgrew the fold's growth cap; the chunked tournament went untested")
	}
}

// TestMergeInternedMatchesMerge pins MergeInterned over inputs with
// their own tables to Merge, whose inputs always share one: over
// random fan-ins of 0 to 300 profiles — overlapping keys with private
// tables, one table shared by pointer, fully disjoint tables, nil
// inputs sprinkled in, and a disjoint fan-in past the fold's growth
// cap — MergeInterned of the interned inputs materializes deeply equal
// to Merge of the profiles and serializes to the same bytes, and no
// input is modified. Both run the one fold; TestMergeMatchesReference
// checks Merge against an independent implementation.
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
