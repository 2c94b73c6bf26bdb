// Package profstore implements the fleet profile store: a mergeable,
// serializable form of a profiling run, built for continuous profiling
// at scale.
//
// The paper's pitch is profiling cheap enough to leave on everywhere
// (Sections I and V); what a fleet then needs is a way to persist each
// run's result, merge thousands of them from concurrent sessions, and
// ask what changed between two fleet mixes. A [Profile] here is that
// stored form: integer retirement mass keyed by stable identities —
// basic blocks by (unit, module, function, address) and instruction
// mass by (mnemonic, ring) — rather than by the in-memory block IDs of
// a live run, so profiles captured by different processes, machines or
// days merge meaningfully.
//
// Three properties are load-bearing:
//
//   - Canonical form. Every Profile this package hands out has its
//     workloads, blocks and ops sorted by key with no duplicates, so
//     two equal profiles are deeply equal and serialize to identical
//     bytes.
//   - Integer mass accounting. Counts are quantized to integers at
//     capture time, so merging is exact integer addition —
//     commutative and associative by construction. N profiles merged
//     in any order, grouping or sharding produce bit-identical
//     results.
//   - Self-containment. Like internal/perffile, this package depends
//     only on the standard library plus the stdlib-only
//     internal/telemetry counters (enforced by the repository's
//     import-boundary test), so the store format can be lifted into
//     external fleet tooling unchanged.
//
// [Merge] combines profiles offline; [Aggregator] does the same online
// under concurrent ingestion, as a queue of immutable interned
// profiles compacted by the same fold; [Diff] compares two merged
// views and flags per-op share regressions.
package profstore

import (
	"fmt"
	"sort"

	"hbbp/internal/telemetry"
)

// mergeCalls counts Merge calls. Registration happens once at init;
// the per-call cost is one atomic add, so instrumenting the merge
// kernel does not move its benchmark.
var mergeCalls = telemetry.Default().Counter("hbbp_profstore_merge_total",
	"Merge calls (offline profile fan-ins).")

// Ring is the privilege level a block executes in, mirroring the
// program model's rings without importing it (this package is
// stdlib-only by design).
const (
	// RingUser is user mode.
	RingUser uint8 = 0
	// RingKernel is kernel mode.
	RingKernel uint8 = 1
)

// ringString names a ring for rendering.
func ringString(r uint8) string {
	if r == RingKernel {
		return "kernel"
	}
	return "user"
}

// Block is one basic block's merged execution mass. The identity
// fields (Unit through Len) form the merge key; Count accumulates.
type Block struct {
	// Unit is the deployable unit the block was captured from — the
	// workload name at capture time, playing the role of a build ID:
	// two builds of the same module (e.g. a before/after pair) keep
	// distinct block namespaces.
	Unit string
	// Module is the linked image (binary, shared object, kernel
	// module) containing the block.
	Module string
	// Function is the symbol containing the block.
	Function string
	// Addr is the block's start address within the unit.
	Addr uint64
	// Ring is the privilege level the block executes in.
	Ring uint8
	// Len is the number of instructions the block retires per
	// execution (live text, trace points patched).
	Len uint32
	// Count is the merged execution count of the block.
	Count uint64
}

// Mass returns the block's retired-instruction mass: executions times
// instructions per execution.
func (b *Block) Mass() uint64 { return b.Count * uint64(b.Len) }

// key returns the block's merge identity (everything but Count).
func (b *Block) key() Block {
	k := *b
	k.Count = 0
	return k
}

// String identifies the block for diagnostics.
func (b *Block) String() string {
	return fmt.Sprintf("%s/%s.%s@%#x[%d]", b.Unit, b.Module, b.Function, b.Addr, b.Len)
}

// OpMass is the merged retirement mass of one mnemonic in one ring.
// (Mnemonic, Ring) is the merge key; Mass accumulates.
type OpMass struct {
	// Mnemonic is the instruction name (e.g. "vaddps"). Stored as a
	// string so the format does not depend on any ISA table's numeric
	// encoding.
	Mnemonic string
	// Ring is the privilege level the retirements happened in.
	Ring uint8
	// Mass is the merged retired-instruction count.
	Mass uint64
}

// WorkloadWeight records how many profiled runs of one workload a
// profile aggregates — the merge's weight accounting.
type WorkloadWeight struct {
	// Name is the workload (capture unit) name.
	Name string
	// Runs is the number of single-run profiles merged in.
	Runs uint64
}

// Profile is a mergeable stored profile in canonical form: workloads
// sorted by name, blocks sorted by identity, ops sorted by
// (mnemonic, ring), each key appearing at most once. Profiles returned
// by this package are always canonical; hand-assembled ones can be
// normalized with [Canonical].
type Profile struct {
	Workloads []WorkloadWeight
	Blocks    []Block
	Ops       []OpMass
}

// TotalRuns returns the number of single-run profiles merged in.
func (p *Profile) TotalRuns() uint64 {
	var n uint64
	for _, w := range p.Workloads {
		n += w.Runs
	}
	return n
}

// TotalMass returns the profile's total retired-instruction mass
// across rings.
func (p *Profile) TotalMass() uint64 {
	var n uint64
	for _, o := range p.Ops {
		n += o.Mass
	}
	return n
}

// RingMass returns the retired-instruction mass of one ring.
func (p *Profile) RingMass(ring uint8) uint64 {
	var n uint64
	for _, o := range p.Ops {
		if o.Ring == ring {
			n += o.Mass
		}
	}
	return n
}

// TopBlocks returns the n hottest blocks by retired-instruction mass
// (count times length), ties broken by identity for determinism.
func (p *Profile) TopBlocks(n int) []Block {
	out := append([]Block(nil), p.Blocks...)
	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Mass(), out[j].Mass()
		if mi != mj {
			return mi > mj
		}
		return blockKeyLess(&out[i], &out[j])
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopOps returns the n most-retired (mnemonic, ring) entries, ties
// broken by key.
func (p *Profile) TopOps(n int) []OpMass {
	out := append([]OpMass(nil), p.Ops...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Mass != out[j].Mass {
			return out[i].Mass > out[j].Mass
		}
		return opKeyLess(&out[i], &out[j])
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	return &Profile{
		Workloads: append([]WorkloadWeight(nil), p.Workloads...),
		Blocks:    append([]Block(nil), p.Blocks...),
		Ops:       append([]OpMass(nil), p.Ops...),
	}
}

// Weighted returns the profile scaled by an integer weight: every
// count, mass and run multiplied by times. Weighted(k) equals merging
// k copies — the explicit form of the merge's weight accounting (e.g.
// one profile standing in for k identical machines) — so Weighted(0)
// is the empty profile, Merge().
func (p *Profile) Weighted(times uint64) *Profile {
	if times == 0 {
		return &Profile{}
	}
	out := p.Clone()
	for i := range out.Workloads {
		out.Workloads[i].Runs *= times
	}
	for i := range out.Blocks {
		out.Blocks[i].Count *= times
	}
	for i := range out.Ops {
		out.Ops[i].Mass *= times
	}
	return out
}

// BlockKeyLess reports whether a orders before b in canonical form —
// the block identity order Merge emits. Producers that build sections
// already unique by key can sort with it, and Merge's translation then
// finds their rows in order and skips its canonicalizing sort.
func BlockKeyLess(a, b *Block) bool { return blockKeyLess(a, b) }

// OpKeyLess is BlockKeyLess for op-mass entries.
func OpKeyLess(a, b *OpMass) bool { return opKeyLess(a, b) }

// blockKeyLess orders blocks canonically by identity.
func blockKeyLess(a, b *Block) bool {
	if a.Unit != b.Unit {
		return a.Unit < b.Unit
	}
	if a.Module != b.Module {
		return a.Module < b.Module
	}
	if a.Function != b.Function {
		return a.Function < b.Function
	}
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	if a.Ring != b.Ring {
		return a.Ring < b.Ring
	}
	return a.Len < b.Len
}

// opKeyLess orders op masses canonically by key.
func opKeyLess(a, b *OpMass) bool {
	if a.Mnemonic != b.Mnemonic {
		return a.Mnemonic < b.Mnemonic
	}
	return a.Ring < b.Ring
}

// Merge combines any number of profiles into one canonical profile.
// Mass accounting is pure integer addition over canonical keys, so the
// result is independent of argument order and grouping down to the
// bit: Merge(a, b, c), Merge(Merge(a, b), c) and Merge(a, Merge(c, b))
// are identical, Merge(p) of a canonical p returns an equal profile,
// and Merge() returns the empty profile (the merge identity). Nil
// arguments are ignored, and so are zero-mass rows.
//
// Merge is [MergeInterned] behind a string translation: one sorted
// symbol table is built for the whole fan-in, each input's rows are
// translated against it (see [Interned]), and the inputs whose rows
// are not already canonical are sorted and folded. Every translated
// input carries the same table, so the fold's table union is free.
func Merge(profiles ...*Profile) *Profile {
	mergeCalls.Inc()
	return MergeInterned(internAll(profiles)...).Profile()
}

// Canonical normalizes a hand-assembled profile: duplicate keys are
// summed, zero-mass entries dropped, everything sorted. Profiles
// produced by this package are already canonical.
func Canonical(p *Profile) *Profile { return Merge(p) }
