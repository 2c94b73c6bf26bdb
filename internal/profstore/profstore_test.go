package profstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomProfile generates a deterministic pseudo-random single-run
// profile. Keys are drawn from small pools so independently generated
// profiles overlap — the interesting case for merging.
func randomProfile(rng *rand.Rand) *Profile {
	units := []string{"gcc", "povray", "fitter-avx", "svc"}
	modules := []string{"a.out", "libm.so", "vmlinux", "hot.ko"}
	funcs := []string{"main", "step", "kernel_entry", "solve", "inner"}
	mnemonics := []string{"add", "mov", "vaddps", "div", "jz", "call", "fmul"}

	unit := units[rng.Intn(len(units))]
	raw := &Profile{
		Workloads: []WorkloadWeight{{Name: unit, Runs: 1}},
	}
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		ring := RingUser
		if rng.Intn(4) == 0 {
			ring = RingKernel
		}
		raw.Blocks = append(raw.Blocks, Block{
			Unit:     unit,
			Module:   modules[rng.Intn(len(modules))],
			Function: funcs[rng.Intn(len(funcs))],
			Addr:     uint64(rng.Intn(64)) * 16,
			Ring:     ring,
			Len:      uint32(1 + rng.Intn(30)),
			Count:    uint64(rng.Intn(1_000_000)),
		})
	}
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		ring := RingUser
		if rng.Intn(4) == 0 {
			ring = RingKernel
		}
		raw.Ops = append(raw.Ops, OpMass{
			Mnemonic: mnemonics[rng.Intn(len(mnemonics))],
			Ring:     ring,
			Mass:     uint64(rng.Intn(10_000_000)),
		})
	}
	return Canonical(raw)
}

// mustBytes serializes a profile or fails the test.
func mustBytes(t *testing.T, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// equalProfiles asserts both deep equality and bit-identical
// serialization — the property the fleet store promises.
func equalProfiles(t *testing.T, what string, a, b *Profile) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: profiles differ structurally:\n%+v\nvs\n%+v", what, a, b)
		return
	}
	if !bytes.Equal(mustBytes(t, a), mustBytes(t, b)) {
		t.Errorf("%s: profiles serialize to different bytes", what)
	}
}

// TestMergeIdentity pins merge(p) == p for canonical p, and that the
// empty merge is the identity element.
func TestMergeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		p := randomProfile(rng)
		equalProfiles(t, "merge(p) == p", Merge(p), p)
		equalProfiles(t, "merge(p, empty) == p", Merge(p, Merge()), p)
		equalProfiles(t, "merge(nil, p) == p", Merge(nil, p), p)
	}
}

// TestMergeOrderIndependence pins that merging any permutation of the
// same profiles produces bit-identical results.
func TestMergeOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	profiles := make([]*Profile, 12)
	for i := range profiles {
		profiles[i] = randomProfile(rng)
	}
	want := Merge(profiles...)
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(profiles))
		shuffled := make([]*Profile, len(profiles))
		for i, j := range perm {
			shuffled[i] = profiles[j]
		}
		equalProfiles(t, "permuted merge", Merge(shuffled...), want)
	}
}

// TestMergeAssociativity pins that grouping does not matter: pairwise
// left folds, right folds and arbitrary tree shapes all match the
// flat merge.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	profiles := make([]*Profile, 9)
	for i := range profiles {
		profiles[i] = randomProfile(rng)
	}
	want := Merge(profiles...)

	left := Merge()
	for _, p := range profiles {
		left = Merge(left, p)
	}
	equalProfiles(t, "left fold", left, want)

	right := Merge()
	for i := len(profiles) - 1; i >= 0; i-- {
		right = Merge(profiles[i], right)
	}
	equalProfiles(t, "right fold", right, want)

	tree := Merge(
		Merge(profiles[0], Merge(profiles[1], profiles[2])),
		Merge(Merge(profiles[3], profiles[4]), profiles[5]),
		Merge(profiles[6], profiles[7], profiles[8]),
	)
	equalProfiles(t, "tree shape", tree, want)
}

// TestWeightedEqualsRepeatedMerge pins the weight accounting:
// p.Weighted(k) is exactly k copies merged — for k = 0 the empty
// merge, for k = 1 the profile itself.
func TestWeightedEqualsRepeatedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randomProfile(rng)
	for _, k := range []int{0, 1, 3} {
		copies := make([]*Profile, k)
		for i := range copies {
			copies[i] = p
		}
		equalProfiles(t, fmt.Sprintf("weighted(%d)", k), p.Weighted(uint64(k)), Merge(copies...))
	}
}

// TestCanonicalNormalizes pins that hand-assembled profiles — out of
// order, duplicated keys, zero-mass entries — normalize to the same
// canonical form, and that Save of the messy profile writes the
// canonical bytes: no string that only a dropped row names reaches
// the string table.
func TestCanonicalNormalizes(t *testing.T) {
	messy := &Profile{
		Workloads: []WorkloadWeight{{Name: "b", Runs: 1}, {Name: "a", Runs: 2}, {Name: "b", Runs: 1}},
		Blocks: []Block{
			{Unit: "u", Module: "m", Function: "g", Addr: 32, Len: 4, Count: 5},
			{Unit: "u", Module: "m", Function: "f", Addr: 16, Len: 2, Count: 7},
			{Unit: "u", Module: "m", Function: "g", Addr: 32, Len: 4, Count: 5},
			{Unit: "u", Module: "m", Function: "z", Addr: 48, Len: 3, Count: 0}, // dropped
		},
		Ops: []OpMass{
			{Mnemonic: "mov", Ring: RingUser, Mass: 3},
			{Mnemonic: "add", Ring: RingKernel, Mass: 2},
			{Mnemonic: "add", Ring: RingUser, Mass: 1},
			{Mnemonic: "mov", Ring: RingUser, Mass: 4},
			{Mnemonic: "nop", Ring: RingUser, Mass: 0}, // dropped
		},
	}
	want := &Profile{
		Workloads: []WorkloadWeight{{Name: "a", Runs: 2}, {Name: "b", Runs: 2}},
		Blocks: []Block{
			{Unit: "u", Module: "m", Function: "f", Addr: 16, Len: 2, Count: 7},
			{Unit: "u", Module: "m", Function: "g", Addr: 32, Len: 4, Count: 10},
		},
		Ops: []OpMass{
			{Mnemonic: "add", Ring: RingUser, Mass: 1},
			{Mnemonic: "add", Ring: RingKernel, Mass: 2},
			{Mnemonic: "mov", Ring: RingUser, Mass: 7},
		},
	}
	equalProfiles(t, "canonical", Canonical(messy), want)
	if got, wantBytes := mustBytes(t, messy), mustBytes(t, want); !bytes.Equal(got, wantBytes) {
		t.Errorf("Save(messy) is %d bytes, Save(canonical) %d: they differ", len(got), len(wantBytes))
	}
}

// TestProfileQueries covers the totals and top-N helpers.
func TestProfileQueries(t *testing.T) {
	p := Canonical(&Profile{
		Workloads: []WorkloadWeight{{Name: "w1", Runs: 2}, {Name: "w2", Runs: 3}},
		Blocks: []Block{
			{Unit: "u", Module: "m", Function: "hot", Addr: 0, Len: 10, Count: 100},  // mass 1000
			{Unit: "u", Module: "m", Function: "cold", Addr: 64, Len: 2, Count: 10},  // mass 20
			{Unit: "u", Module: "m", Function: "warm", Addr: 128, Len: 5, Count: 50}, // mass 250
		},
		Ops: []OpMass{
			{Mnemonic: "add", Ring: RingUser, Mass: 900},
			{Mnemonic: "mov", Ring: RingKernel, Mass: 370},
		},
	})
	if got := p.TotalRuns(); got != 5 {
		t.Errorf("TotalRuns = %d, want 5", got)
	}
	if got := p.TotalMass(); got != 1270 {
		t.Errorf("TotalMass = %d, want 1270", got)
	}
	if got := p.RingMass(RingKernel); got != 370 {
		t.Errorf("RingMass(kernel) = %d, want 370", got)
	}
	top := p.TopBlocks(2)
	if len(top) != 2 || top[0].Function != "hot" || top[1].Function != "warm" {
		t.Errorf("TopBlocks(2) = %+v", top)
	}
	ops := p.TopOps(1)
	if len(ops) != 1 || ops[0].Mnemonic != "add" {
		t.Errorf("TopOps(1) = %+v", ops)
	}
}

// ingestConcurrently feeds profiles into an aggregator with the given
// number of writer goroutines.
func ingestConcurrently(agg *Aggregator, profiles []*Profile, writers int) {
	var wg sync.WaitGroup
	idx := make(chan *Profile)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range idx {
				agg.Ingest(p)
			}
		}()
	}
	for _, p := range profiles {
		idx <- p
	}
	close(idx)
	wg.Wait()
}

// compactionSets returns profile streams long enough to cross the
// aggregator's compaction point several times: disjoint units (the
// prefix doubles at every compaction), profiles that bring new symbols
// mid-stream (the table grows while the queue fills), and repeats of
// one profile (every compaction folds equal keys).
func compactionSets(rng *rand.Rand) map[string][]*Profile {
	disjoint := make([]*Profile, 800)
	for i := range disjoint {
		disjoint[i] = disjointProfile(rng, i)
	}
	newSyms := make([]*Profile, 600)
	for i := range newSyms {
		p := randomProfile(rng).Clone()
		tag := fmt.Sprintf("@%d", i/40)
		if len(p.Blocks) > 0 {
			p.Blocks[0].Function += tag
		}
		if len(p.Ops) > 0 {
			p.Ops[0].Mnemonic += tag
		}
		newSyms[i] = Canonical(p)
	}
	one := randomProfile(rng)
	repeats := make([]*Profile, 400)
	for i := range repeats {
		repeats[i] = one
	}
	return map[string][]*Profile{"disjoint units": disjoint, "new symbols mid-stream": newSyms, "repeats": repeats}
}

// compactions ingests profiles one at a time into a fresh aggregator
// and counts how often it folded its queue into the prefix.
func compactions(profiles []*Profile) int {
	agg := NewAggregator()
	n := 0
	for _, p := range profiles {
		before := agg.prefix
		agg.Ingest(p)
		if agg.prefix != before {
			n++
		}
	}
	return n
}

// TestAggregatorMatchesMergeAtAnyParallelism pins the tentpole
// invariant: an Aggregator snapshot is bit-identical to the offline
// Merge of the same profiles, whether one goroutine ingested them or
// eight did — for a short random stream and for streams that cross the
// compaction point several times. Run under -race this also proves the
// one mutex orders ingests against the queue and its compactions.
func TestAggregatorMatchesMergeAtAnyParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := make([]*Profile, 64)
	for i := range random {
		random[i] = randomProfile(rng)
	}
	sets := compactionSets(rng)
	for name, profiles := range sets {
		if n := compactions(profiles); n < 3 {
			t.Fatalf("%s: %d compactions, want at least 3", name, n)
		}
	}
	sets["random"] = random
	for name, profiles := range sets {
		want := Merge(profiles...)
		for _, writers := range []int{1, 8} {
			agg := NewAggregator()
			ingestConcurrently(agg, profiles, writers)
			equalProfiles(t, fmt.Sprintf("%s, %d writers: snapshot vs merge", name, writers), agg.Snapshot(), want)
		}
	}
}

// TestAggregatorSnapshotDuringIngestion takes snapshots while writers
// are still ingesting: every snapshot must be a valid canonical
// profile whose mass is a whole number of ingested profiles (no torn
// Ingest is ever visible), and the final snapshot must equal the full
// merge.
func TestAggregatorSnapshotDuringIngestion(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// All profiles identical, so partial visibility is detectable by
	// mass arithmetic: any consistent snapshot holds k whole copies.
	p := randomProfile(rng)
	for p.TotalMass() == 0 {
		p = randomProfile(rng)
	}
	const copies = 200
	profiles := make([]*Profile, copies)
	for i := range profiles {
		profiles[i] = p
	}
	agg := NewAggregator()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ingestConcurrently(agg, profiles, 8)
	}()
	unit := p.TotalMass()
	for i := 0; i < 50; i++ {
		snap := agg.Snapshot()
		if m := snap.TotalMass(); m%unit != 0 {
			t.Fatalf("snapshot observed a torn ingest: mass %d is not a multiple of %d", m, unit)
		}
	}
	<-done
	equalProfiles(t, "final snapshot", agg.Snapshot(), p.Weighted(copies))
}

// TestDiff covers the movement report: share deltas, threshold
// flagging, and determinism of ordering.
func TestDiff(t *testing.T) {
	before := Canonical(&Profile{
		Workloads: []WorkloadWeight{{Name: "w", Runs: 1}},
		Ops: []OpMass{
			{Mnemonic: "vaddps", Ring: RingUser, Mass: 500}, // 50%
			{Mnemonic: "mov", Ring: RingUser, Mass: 450},    // 45%
			{Mnemonic: "nop", Ring: RingUser, Mass: 50},     // 5%
		},
	})
	after := Canonical(&Profile{
		Workloads: []WorkloadWeight{{Name: "w", Runs: 2}},
		Ops: []OpMass{
			{Mnemonic: "addss", Ring: RingUser, Mass: 1000}, // 50%: new — devectorized
			{Mnemonic: "mov", Ring: RingUser, Mass: 900},    // 45%: unchanged share
			{Mnemonic: "nop", Ring: RingUser, Mass: 100},    // 5%: unchanged share
		},
	})
	rep := Diff(before, after, DiffOptions{Threshold: 0.02})
	if rep.TotalBefore != 1000 || rep.TotalAfter != 2000 {
		t.Fatalf("totals %d/%d", rep.TotalBefore, rep.TotalAfter)
	}
	if rep.RunsBefore != 1 || rep.RunsAfter != 2 {
		t.Fatalf("runs %d/%d", rep.RunsBefore, rep.RunsAfter)
	}
	if len(rep.Deltas) != 4 {
		t.Fatalf("Deltas = %+v", rep.Deltas)
	}
	// The two 50-point movers lead, alphabetically tied; unchanged
	// shares trail with zero delta.
	if rep.Deltas[0].Mnemonic != "addss" || rep.Deltas[0].ShareDelta != 0.5 {
		t.Errorf("Deltas[0] = %+v", rep.Deltas[0])
	}
	if rep.Deltas[1].Mnemonic != "vaddps" || rep.Deltas[1].ShareDelta != -0.5 {
		t.Errorf("Deltas[1] = %+v", rep.Deltas[1])
	}
	if len(rep.Regressions) != 2 {
		t.Errorf("Regressions = %+v", rep.Regressions)
	}
	// Zero threshold selects the default.
	if got := Diff(before, after, DiffOptions{}).Threshold; got != DefaultDiffThreshold {
		t.Errorf("default threshold = %v", got)
	}
	// Render mentions the regression and both totals.
	out := rep.Render(0)
	for _, want := range []string{"REGRESSION", "addss", "vaddps", "1 runs", "2 runs"} {
		if !containsStr(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// Nil sides are empty.
	empty := Diff(nil, nil, DiffOptions{})
	if len(empty.Deltas) != 0 || empty.TotalBefore != 0 {
		t.Errorf("nil diff = %+v", empty)
	}
}

func containsStr(haystack, needle string) bool {
	return bytes.Contains([]byte(haystack), []byte(needle))
}
