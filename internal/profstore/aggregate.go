package profstore

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
)

// Aggregator merges profiles online: many goroutines ingest while
// readers take consistent snapshots, the live counterpart of [Merge]
// for fleets of concurrent sessions.
//
// Interning design. The aggregator carries its own symbol table:
// every unit/module/function/mnemonic string is assigned a dense
// uint32 ID on first sight (a read-mostly map — one shared-lock
// lookup per *distinct* string per profile, not per row), and all
// shard keys are fixed-width integer tuples. Ingesting a profile is
// then pure integer work: hash integers to pick a stripe, add
// integers under its lock. Profiles arriving in interned form — e.g.
// decoded off the wire with [LoadInterned] — skip string handling
// per row entirely: their table is remapped onto the aggregator's
// once, and rows flow through as integers.
//
// Concurrency design. Mass lives in lock-striped shards: each block or
// op key hashes to one shard, and concurrent ingests of different keys
// proceed in parallel, only colliding on a shard's mutex when their
// keys land together. Around the stripes sits a reader-writer lock
// held shared by every ingest and exclusively by Snapshot, which buys
// the snapshot guarantee: a snapshot reflects every Ingest that
// returned before the call and no partial ones — it can never observe
// half of an in-flight profile. Ingestion never stops for long: the
// exclusive section only copies out the raw counters; sorting and
// canonicalization happen after the lock is released.
//
// Because the shards accumulate the same integer masses Merge would,
// a Snapshot is bit-identical to Merge over the same profiles — at
// any ingestion parallelism, in any arrival order.
type Aggregator struct {
	mu     sync.RWMutex
	shards []aggShard
	mask   uint64

	// Symbol table: append-only, insertion-ordered; IDs are sorted into
	// canonical order at snapshot time. Guarded by its own lock rather
	// than mu so table growth never blocks snapshot admission.
	smu    sync.RWMutex
	symIDs map[string]uint32
	syms   []string

	wmu       sync.Mutex
	workloads map[uint32]uint64
}

// aggBlockKey is a block identity with interned strings — the shard
// map key. Field order matches canonical key order.
type aggBlockKey struct {
	unit, module, function uint32
	addr                   uint64
	ring                   uint8
	blen                   uint32
}

// aggOpKey is aggBlockKey for ops.
type aggOpKey struct {
	mnemonic uint32
	ring     uint8
}

// aggShard is one lock stripe.
type aggShard struct {
	mu     sync.Mutex
	blocks map[aggBlockKey]uint64
	ops    map[aggOpKey]uint64
}

// NewAggregator returns an empty aggregator sized for the machine:
// the stripe count is the smallest power of two covering four lanes
// per processor (minimum 8), so same-shard collisions stay rare at
// high ingest parallelism.
func NewAggregator() *Aggregator {
	n := 8
	for n < 4*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	a := &Aggregator{
		shards:    make([]aggShard, n),
		mask:      uint64(n - 1),
		symIDs:    make(map[string]uint32),
		workloads: make(map[uint32]uint64),
	}
	for i := range a.shards {
		a.shards[i].blocks = make(map[aggBlockKey]uint64)
		a.shards[i].ops = make(map[aggOpKey]uint64)
	}
	return a
}

// sym interns one string into the aggregator's table. Read-locked
// lookup first: after warm-up every call is a shared-lock map hit.
func (a *Aggregator) sym(s string) uint32 {
	a.smu.RLock()
	id, ok := a.symIDs[s]
	a.smu.RUnlock()
	if ok {
		return id
	}
	a.smu.Lock()
	defer a.smu.Unlock()
	if id, ok = a.symIDs[s]; ok {
		return id
	}
	id = uint32(len(a.syms))
	a.syms = append(a.syms, s)
	a.symIDs[s] = id
	return id
}

// mix64 finalizes an integer hash (splitmix64's mixer) so shard
// selection costs a few multiplies instead of byte-at-a-time FNV over
// string keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (a *Aggregator) blockShard(k *aggBlockKey) *aggShard {
	h := uint64(k.unit) | uint64(k.module)<<21 | uint64(k.function)<<42
	h = mix64(h ^ mix64(k.addr^uint64(k.ring)<<56^uint64(k.blen)<<24))
	return &a.shards[h&a.mask]
}

func (a *Aggregator) opShard(k aggOpKey) *aggShard {
	h := mix64(uint64(k.mnemonic)<<8 | uint64(k.ring))
	return &a.shards[h&a.mask]
}

// Ingest folds one profile into the aggregator. Safe for any number of
// concurrent callers; each call is atomic with respect to Snapshot.
// Nil profiles are ignored.
func (a *Aggregator) Ingest(p *Profile) {
	if p == nil {
		return
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	// Per-field run caches: canonical sections repeat strings in runs,
	// so the table is consulted once per run, not once per row.
	var prevName string
	var prevNameID uint32
	firstName := true
	for _, w := range p.Workloads {
		if w.Runs == 0 {
			continue
		}
		if firstName || w.Name != prevName {
			prevNameID, prevName, firstName = a.sym(w.Name), w.Name, false
		}
		a.wmu.Lock()
		a.workloads[prevNameID] += w.Runs
		a.wmu.Unlock()
	}
	var pu, pm, pf string
	var puID, pmID, pfID uint32
	first := true
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.Count == 0 {
			continue
		}
		if first || b.Unit != pu {
			puID, pu = a.sym(b.Unit), b.Unit
		}
		if first || b.Module != pm {
			pmID, pm = a.sym(b.Module), b.Module
		}
		if first || b.Function != pf {
			pfID, pf = a.sym(b.Function), b.Function
		}
		first = false
		k := aggBlockKey{unit: puID, module: pmID, function: pfID, addr: b.Addr, ring: b.Ring, blen: b.Len}
		s := a.blockShard(&k)
		s.mu.Lock()
		s.blocks[k] += b.Count
		s.mu.Unlock()
	}
	var prevMn string
	var prevMnID uint32
	firstMn := true
	for _, o := range p.Ops {
		if o.Mass == 0 {
			continue
		}
		if firstMn || o.Mnemonic != prevMn {
			prevMnID, prevMn, firstMn = a.sym(o.Mnemonic), o.Mnemonic, false
		}
		k := aggOpKey{mnemonic: prevMnID, ring: o.Ring}
		s := a.opShard(k)
		s.mu.Lock()
		s.ops[k] += o.Mass
		s.mu.Unlock()
	}
}

// IngestInterned folds an interned profile in — the wire-ingest fast
// path. The profile's symbol table is remapped onto the aggregator's
// once (one table lookup per distinct symbol), and every row is then
// pure integer work: no string is touched per row. Semantically
// identical to Ingest of the materialized profile.
func (a *Aggregator) IngestInterned(in *Interned) {
	if in == nil {
		return
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	var remapBuf [64]uint32
	remap := remapBuf[:0]
	if len(in.syms) > len(remapBuf) {
		remap = make([]uint32, 0, len(in.syms))
	}
	for _, s := range in.syms {
		remap = append(remap, a.sym(s))
	}
	for _, w := range in.workloads {
		if w.runs == 0 {
			continue
		}
		a.wmu.Lock()
		a.workloads[remap[w.name]] += w.runs
		a.wmu.Unlock()
	}
	for i := range in.blocks {
		b := &in.blocks[i]
		if b.count == 0 {
			continue
		}
		k := aggBlockKey{
			unit: remap[b.unit], module: remap[b.module], function: remap[b.function],
			addr: b.addr, ring: b.ring, blen: b.blen,
		}
		s := a.blockShard(&k)
		s.mu.Lock()
		s.blocks[k] += b.count
		s.mu.Unlock()
	}
	for i := range in.ops {
		o := &in.ops[i]
		if o.mass == 0 {
			continue
		}
		k := aggOpKey{mnemonic: remap[o.mnemonic], ring: o.ring}
		s := a.opShard(k)
		s.mu.Lock()
		s.ops[k] += o.mass
		s.mu.Unlock()
	}
}

// Snapshot returns the merged view of everything ingested so far, as a
// canonical profile: SnapshotInterned, materialized.
func (a *Aggregator) Snapshot() *Profile { return a.SnapshotInterned().Profile() }

// SnapshotInterned returns the merged view of everything ingested so
// far in interned form, for callers that keep merging — the fleet
// tier's epoch roll and window queries — without a string round trip.
// It is consistent: every Ingest that returned before the call is
// fully included, and no in-flight Ingest is partially visible.
// Ingestion resumes the moment the raw counters are copied out;
// canonicalization runs outside the lock.
func (a *Aggregator) SnapshotInterned() *Interned {
	in := &Interned{}
	a.mu.Lock()
	// Copy out raw interned state under the exclusive lock. The symbol
	// lock is not needed: every writer to the table holds mu shared, so
	// mu exclusive orders after all of them.
	in.syms = append([]string(nil), a.syms...)
	if len(a.workloads) > 0 {
		in.workloads = make([]iWorkload, 0, len(a.workloads))
		for id, runs := range a.workloads {
			in.workloads = append(in.workloads, iWorkload{name: id, runs: runs})
		}
	}
	var nb, no int
	for i := range a.shards {
		nb += len(a.shards[i].blocks)
		no += len(a.shards[i].ops)
	}
	if nb > 0 {
		in.blocks = make([]iBlock, 0, nb)
	}
	if no > 0 {
		in.ops = make([]iOp, 0, no)
	}
	for i := range a.shards {
		for k, count := range a.shards[i].blocks {
			in.blocks = append(in.blocks, iBlock{
				unit: k.unit, module: k.module, function: k.function,
				addr: k.addr, ring: k.ring, blen: k.blen, count: count,
			})
		}
		for k, mass := range a.shards[i].ops {
			in.ops = append(in.ops, iOp{mnemonic: k.mnemonic, ring: k.ring, mass: mass})
		}
	}
	a.mu.Unlock()
	// Canonicalize outside the lock: sort the insertion-ordered table
	// (remapping row IDs through the permutation makes integer order
	// string order), then integer-sort the rows. IDs are bijective with
	// strings, so no folding is needed — keys were unique in the maps.
	in.sortSyms()
	slices.SortFunc(in.workloads, func(a, b iWorkload) int { return cmp.Compare(a.name, b.name) })
	slices.SortFunc(in.blocks, func(a, b iBlock) int { return iBlockCmp(&a, &b) })
	slices.SortFunc(in.ops, func(a, b iOp) int { return iOpCmp(&a, &b) })
	return in
}
