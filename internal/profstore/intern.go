package profstore

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Interned is a profile in index-keyed form: every unit, module,
// function and mnemonic string lives once in a dense, sorted symbol
// table, and rows carry fixed-width uint32 symbol IDs instead of
// string headers. It is the merge kernel's working representation.
//
// Two invariants make the form fast without giving anything up:
//
//   - The table is sorted and unique, so symbol-ID order *is* string
//     order: comparing two row keys degenerates to a handful of
//     integer compares, yet yields exactly the canonical order the
//     string keys define. Rows are therefore kept sorted by integer
//     key and are canonical in the [Profile] sense by construction.
//   - Merging two interned profiles unions their symbol tables first —
//     a linear merge of two small sorted string slices, the only place
//     strings are ever compared — and then sums rows with pure integer
//     passes. When the tables are equal (the hot case: every snapshot
//     of one fleet names the same symbols) the union is free and no
//     row is rewritten.
//
// An Interned is immutable once built; it is safe to share across
// goroutines. Materialize with [Interned.Profile].
type Interned struct {
	syms      []string // sorted, unique
	workloads []iWorkload
	blocks    []iBlock
	ops       []iOp
}

// iWorkload, iBlock and iOp mirror the Profile row types with symbol
// IDs in place of strings. Field order matches canonical key order.
type iWorkload struct {
	name uint32
	runs uint64
}

type iBlock struct {
	unit, module, function uint32
	addr                   uint64
	ring                   uint8
	blen                   uint32
	count                  uint64
}

type iOp struct {
	mnemonic uint32
	ring     uint8
	mass     uint64
}

// iBlockCmp orders block rows canonically: because symbol IDs are
// assigned in sorted-table order, integer ID comparison is string
// comparison, and this is blockKeyLess on integers.
func iBlockCmp(a, b *iBlock) int {
	switch {
	case a.unit != b.unit:
		if a.unit < b.unit {
			return -1
		}
		return 1
	case a.module != b.module:
		if a.module < b.module {
			return -1
		}
		return 1
	case a.function != b.function:
		if a.function < b.function {
			return -1
		}
		return 1
	case a.addr != b.addr:
		if a.addr < b.addr {
			return -1
		}
		return 1
	case a.ring != b.ring:
		if a.ring < b.ring {
			return -1
		}
		return 1
	case a.blen != b.blen:
		if a.blen < b.blen {
			return -1
		}
		return 1
	}
	return 0
}

// iOpCmp is iBlockCmp for op rows.
func iOpCmp(a, b *iOp) int {
	switch {
	case a.mnemonic != b.mnemonic:
		if a.mnemonic < b.mnemonic {
			return -1
		}
		return 1
	case a.ring != b.ring:
		if a.ring < b.ring {
			return -1
		}
		return 1
	}
	return 0
}

// keyed is what the generic section kernels below need of an interned
// row type: its canonical key order and mass addition, so one kernel
// per operation serves all three sections. Methods take and return
// values: rows hold no pointers, so nothing a kernel passes through
// the constraint escapes to the heap.
type keyed[R any] interface {
	cmpKey(R) int
	plus(R) R
}

// row is keyed plus the symbol-ID rewrite the interned fold applies
// on the fly.
type row[R any] interface {
	keyed[R]
	withIDs(remap []uint32) R
}

func (w iWorkload) cmpKey(o iWorkload) int { return cmp.Compare(w.name, o.name) }
func (w iWorkload) plus(o iWorkload) iWorkload {
	w.runs += o.runs
	return w
}
func (w iWorkload) withIDs(m []uint32) iWorkload {
	w.name = m[w.name]
	return w
}

func (b iBlock) cmpKey(o iBlock) int { return iBlockCmp(&b, &o) }
func (b iBlock) plus(o iBlock) iBlock {
	b.count += o.count
	return b
}

func (o iOp) cmpKey(p iOp) int { return iOpCmp(&o, &p) }
func (o iOp) plus(p iOp) iOp {
	o.mass += p.mass
	return o
}
func (o iOp) withIDs(m []uint32) iOp {
	o.mnemonic = m[o.mnemonic]
	return o
}

// Intern converts a profile to interned form: the translation [Merge]
// runs, for a fan-in of one. Canonical profiles (the common case —
// everything this package hands out) translate in one linear pass;
// anything else is sorted and folded on the way in, so
// Intern(p).Profile() always equals Canonical(p).
func Intern(p *Profile) *Interned {
	if p == nil {
		return &Interned{}
	}
	return internAll([]*Profile{p})[0]
}

// internAll translates a fan-in of profiles against one sorted symbol
// table, built for the whole fan-in and shared by every result, so
// MergeInterned's table union over them is free and no row is
// remapped. Zero-mass rows carry no information: they are dropped, and
// the strings only they name stay out of the table. Nil profiles are
// skipped.
func internAll(profiles []*Profile) []*Interned {
	tab := &symLookup{ids: make(map[string]uint32, 64)}
	for _, p := range profiles {
		if p != nil {
			tab.collect(p)
		}
	}
	slices.Sort(tab.syms)
	for i, s := range tab.syms {
		tab.ids[s] = uint32(i)
	}
	ins := make([]*Interned, 0, len(profiles))
	for _, p := range profiles {
		if p != nil {
			ins = append(ins, internRows(p, tab))
		}
	}
	return ins
}

// growthCapFor is the accumulator size, in rows, past which a fold
// seals its accumulator into a tournament chunk: four times the
// largest input, so aligned fan-ins never hit it and disjoint ones
// stop folding before the rebuilds go quadratic.
func growthCapFor(maxRows int) int {
	return max(4*maxRows, 2048)
}

// rows is the profile's total row count across sections.
func (in *Interned) rows() int { return len(in.workloads) + len(in.blocks) + len(in.ops) }

// MergeInterned merges any number of interned profiles into one: the
// index-keyed [Merge], bit-identical to it over the materialized
// forms — MergeInterned(Intern(a), Intern(b)).Profile() equals
// Merge(a, b). Nil arguments are ignored, no argument is modified,
// and a lone input is returned as-is (an Interned is immutable).
//
// No string is touched per row. One union symbol table is built for
// the whole fan-in — free when every input carries the same table,
// the steady state of one fleet's windows — and the integer rows then
// fold into one mutable accumulator, in place while the keys line up,
// each input translated through its remap onto the union on the fly.
// Past a growth cap the accumulator is sealed into a chunk for the
// pairwise tournament, so disjoint keys cost O(N log k), not O(N²).
// [Merge] is this fold behind a string translation.
//
// hbbp_profstore_merge_total counts [Merge] calls only: the fleet
// tier's epoch compactions, window queries and retention folds all
// run MergeInterned and are not counted.
func MergeInterned(ins ...*Interned) *Interned {
	live := make([]*Interned, 0, len(ins))
	maxRows := 0
	for _, in := range ins {
		if in != nil {
			live = append(live, in)
			maxRows = max(maxRows, in.rows())
		}
	}
	switch len(live) {
	case 0:
		return &Interned{}
	case 1:
		return live[0]
	}
	syms := unionTables(live)
	growthCap := growthCapFor(maxRows)
	var acc *Interned
	var chunks []*Interned
	// Scratch slices recycled across the accumulator's merging rebuilds.
	var scratchW []iWorkload
	var scratchB []iBlock
	var scratchO []iOp
	for _, in := range live {
		remap := remapInto(in.syms, syms)
		switch {
		case acc == nil:
			acc = in.remapped(syms, remap)
		case acc.rows() > growthCap:
			chunks = append(chunks, acc)
			acc = in.remapped(syms, remap)
		default:
			acc.workloads = foldRows(acc.workloads, in.workloads, remap, &scratchW)
			acc.blocks = foldBlockRows(acc.blocks, in.blocks, remap, &scratchB)
			acc.ops = foldRows(acc.ops, in.ops, remap, &scratchO)
		}
	}
	return mergeInterned(append(chunks, acc))
}

// foldRows adds the sorted interned section src, its IDs translated
// through remap (nil: already the accumulator's), into the sorted
// accumulator section a — in place while every source key is already
// present, by one merging rebuild into *scratch once one is not.
// Returns the (possibly swapped) accumulator slice; the old one
// becomes the scratch.
func foldRows[R row[R]](a, src []R, remap []uint32, scratch *[]R) []R {
	ai := 0
	for i, k := range src {
		if remap != nil {
			k = k.withIDs(remap)
		}
		// One compare per row when the key sequences line up — the
		// aligned-fleet case this fold exists for.
		c := 1
		for ai < len(a) {
			if c = a[ai].cmpKey(k); c >= 0 {
				break
			}
			ai++
		}
		if c == 0 {
			a[ai] = a[ai].plus(k)
			ai++
			continue
		}
		// New key: merge the tail into scratch and swap.
		out := append((*scratch)[:0], a[:ai]...)
		out = append(out, k)
		for _, k2 := range src[i+1:] {
			if remap != nil {
				k2 = k2.withIDs(remap)
			}
			c := 1
			for ai < len(a) {
				if c = a[ai].cmpKey(k2); c >= 0 {
					break
				}
				out = append(out, a[ai])
				ai++
			}
			if c == 0 {
				k2 = k2.plus(a[ai])
				ai++
			}
			out = append(out, k2)
		}
		out = append(out, a[ai:]...)
		*scratch = a[:0]
		return out
	}
	return a
}

// foldBlockRows is foldRows hand-specialized for the block section.
// Blocks are the bulk of every profile, and the generic fold reaches
// the key compare and mass add through the constraint's dictionary,
// not inlined: taking foldRows for blocks measured 1.73x on
// BenchmarkSeriesWindow and 1.94x on BenchmarkServerWindow (10
// alternating rounds, EXPERIMENTS.md), so this one section pays for
// its own copy.
func foldBlockRows(a, src []iBlock, remap []uint32, scratch *[]iBlock) []iBlock {
	ai := 0
	for i := range src {
		k := src[i]
		if remap != nil {
			k.unit, k.module, k.function = remap[k.unit], remap[k.module], remap[k.function]
		}
		c := 1
		for ai < len(a) {
			if c = iBlockCmp(&a[ai], &k); c >= 0 {
				break
			}
			ai++
		}
		if c == 0 {
			a[ai].count += k.count
			ai++
			continue
		}
		// New key: merge the tail into scratch and swap.
		out := append((*scratch)[:0], a[:ai]...)
		out = append(out, k)
		for i2 := i + 1; i2 < len(src); i2++ {
			k2 := src[i2]
			if remap != nil {
				k2.unit, k2.module, k2.function = remap[k2.unit], remap[k2.module], remap[k2.function]
			}
			c := 1
			for ai < len(a) {
				if c = iBlockCmp(&a[ai], &k2); c >= 0 {
					break
				}
				out = append(out, a[ai])
				ai++
			}
			if c == 0 {
				k2.count += a[ai].count
				ai++
			}
			out = append(out, k2)
		}
		out = append(out, a[ai:]...)
		*scratch = a[:0]
		return out
	}
	return a
}

// symLookup interns strings into a growing table.
type symLookup struct {
	ids  map[string]uint32
	syms []string
}

func (t *symLookup) id(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.syms))
	t.ids[s] = id
	t.syms = append(t.syms, s)
	return id
}

// symRun caches one call site's last lookup: canonical sections keep
// equal strings in runs (and rows decoded from one stream share
// backing arrays), so the map is consulted at run boundaries only.
type symRun struct {
	s   string
	sym uint32
	ok  bool
}

func (r *symRun) id(t *symLookup, s string) uint32 {
	if !r.ok || s != r.s {
		r.s, r.sym, r.ok = s, t.id(s), true
	}
	return r.sym
}

// collect adds the strings of p's kept rows — those with nonzero mass —
// to the table.
func (t *symLookup) collect(p *Profile) {
	var name, unit, module, function, mnemonic symRun
	for i := range p.Workloads {
		if w := &p.Workloads[i]; w.Runs != 0 {
			name.id(t, w.Name)
		}
	}
	for i := range p.Blocks {
		if b := &p.Blocks[i]; b.Count != 0 {
			unit.id(t, b.Unit)
			module.id(t, b.Module)
			function.id(t, b.Function)
		}
	}
	for i := range p.Ops {
		if o := &p.Ops[i]; o.Mass != 0 {
			mnemonic.id(t, o.Mnemonic)
		}
	}
}

// internRows translates p's nonzero rows against tab, which already
// holds every string they name, sorted: IDs are final as they are
// assigned, so each translated row is checked against the one before
// it with an integer compare. Only a profile out of canonical order
// (unsorted, or a key repeated) is sorted and folded afterwards.
func internRows(p *Profile, tab *symLookup) *Interned {
	in := &Interned{
		syms:      tab.syms,
		workloads: make([]iWorkload, 0, len(p.Workloads)),
		blocks:    make([]iBlock, 0, len(p.Blocks)),
		ops:       make([]iOp, 0, len(p.Ops)),
	}
	sorted := true
	var name, unit, module, function, mnemonic symRun
	for i := range p.Workloads {
		w := &p.Workloads[i]
		if w.Runs == 0 {
			continue
		}
		r := iWorkload{name: name.id(tab, w.Name), runs: w.Runs}
		if n := len(in.workloads); n > 0 && in.workloads[n-1].name >= r.name {
			sorted = false
		}
		in.workloads = append(in.workloads, r)
	}
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.Count == 0 {
			continue
		}
		r := iBlock{
			unit: unit.id(tab, b.Unit), module: module.id(tab, b.Module), function: function.id(tab, b.Function),
			addr: b.Addr, ring: b.Ring, blen: b.Len, count: b.Count,
		}
		if n := len(in.blocks); n > 0 && iBlockCmp(&in.blocks[n-1], &r) >= 0 {
			sorted = false
		}
		in.blocks = append(in.blocks, r)
	}
	for i := range p.Ops {
		o := &p.Ops[i]
		if o.Mass == 0 {
			continue
		}
		r := iOp{mnemonic: mnemonic.id(tab, o.Mnemonic), ring: o.Ring, mass: o.Mass}
		if n := len(in.ops); n > 0 && iOpCmp(&in.ops[n-1], &r) >= 0 {
			sorted = false
		}
		in.ops = append(in.ops, r)
	}
	if !sorted {
		in.normalize()
	}
	return in
}

// remapIDs rewrites every row's symbol IDs through remap, in place.
func (in *Interned) remapIDs(remap []uint32) {
	for i := range in.workloads {
		in.workloads[i].name = remap[in.workloads[i].name]
	}
	for i := range in.blocks {
		b := &in.blocks[i]
		b.unit, b.module, b.function = remap[b.unit], remap[b.module], remap[b.function]
	}
	for i := range in.ops {
		in.ops[i].mnemonic = remap[in.ops[i].mnemonic]
	}
}

// normalize integer-sorts every section and folds duplicate keys.
// Zero-mass *inputs* were already dropped; folded sums are kept even
// if they wrap to zero, matching exact integer merge semantics.
func (in *Interned) normalize() {
	in.workloads = normalizeRows(in.workloads)
	in.blocks = normalizeRows(in.blocks)
	in.ops = normalizeRows(in.ops)
}

// normalizeRows sorts one section and folds runs of equal keys.
func normalizeRows[R keyed[R]](rows []R) []R {
	if len(rows) < 2 {
		return rows
	}
	slices.SortFunc(rows, R.cmpKey)
	out := rows[:1]
	for _, r := range rows[1:] {
		if last := len(out) - 1; out[last].cmpKey(r) == 0 {
			out[last] = out[last].plus(r)
		} else {
			out = append(out, r)
		}
	}
	return out
}

// Profile materializes the interned form back to a canonical Profile.
// Strings are shared with the symbol table; row slices are fresh, so
// the result is the caller's own.
func (in *Interned) Profile() *Profile {
	out := &Profile{}
	if len(in.workloads) > 0 {
		out.Workloads = make([]WorkloadWeight, len(in.workloads))
		for i, w := range in.workloads {
			out.Workloads[i] = WorkloadWeight{Name: in.syms[w.name], Runs: w.runs}
		}
	}
	if len(in.blocks) > 0 {
		out.Blocks = make([]Block, len(in.blocks))
		for i := range in.blocks {
			b := &in.blocks[i]
			out.Blocks[i] = Block{
				Unit: in.syms[b.unit], Module: in.syms[b.module], Function: in.syms[b.function],
				Addr: b.addr, Ring: b.ring, Len: b.blen, Count: b.count,
			}
		}
	}
	if len(in.ops) > 0 {
		out.Ops = make([]OpMass, len(in.ops))
		for i := range in.ops {
			o := &in.ops[i]
			out.Ops[i] = OpMass{Mnemonic: in.syms[o.mnemonic], Ring: o.ring, Mass: o.mass}
		}
	}
	return out
}

// sameSyms reports whether two sorted symbol tables are equal. Tables
// sharing a backing array — chunks of one merge, windows folded from
// one another — answer without a string compare.
func sameSyms(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// unionSorted merges two sorted symbol tables. Equal tables — the hot
// case — return a itself, so tournament rounds over one fleet's
// snapshots share one table and never rewrite a row.
func unionSorted(a, b []string) []string {
	if sameSyms(a, b) {
		return a
	}
	syms := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			syms = append(syms, a[i])
			i++
		case b[j] < a[i]:
			syms = append(syms, b[j])
			j++
		default:
			syms = append(syms, a[i])
			i++
			j++
		}
	}
	syms = append(syms, a[i:]...)
	return append(syms, b[j:]...)
}

// unionTables returns the sorted union of a fan-in's symbol tables.
// Inputs whose table equals the first cost one compare pass each (a
// pointer compare when shared); the distinct rest meet in a pairwise
// tournament of linear merges, O(T log k) string compares for k
// tables of T strings in all, however disjoint.
func unionTables(live []*Interned) []string {
	first := live[0].syms
	round := [][]string{first}
	for _, in := range live[1:] {
		if !sameSyms(in.syms, first) {
			round = append(round, in.syms)
		}
	}
	for len(round) > 1 {
		// Writing pair p into slot p never overtakes the reads at 2p.
		next := round[:0]
		for i := 0; i+1 < len(round); i += 2 {
			next = append(next, unionSorted(round[i], round[i+1]))
		}
		if len(round)%2 == 1 {
			next = append(next, round[len(round)-1])
		}
		round = next
	}
	return round[0]
}

// remapInto maps each ID of the sorted table sub onto its position in
// union, a sorted superset. A nil remap means the IDs already agree: a
// superset of equal length is the same table. Runs of consecutive
// symbols cost one compare each; a gap costs one binary search, so a
// small table against a large union stays O(m log U).
func remapInto(sub, union []string) []uint32 {
	if len(sub) == len(union) {
		return nil
	}
	remap := make([]uint32, len(sub))
	j := 0
	for i, s := range sub {
		if union[j] != s {
			j += sort.SearchStrings(union[j:], s)
		}
		remap[i] = uint32(j)
		j++
	}
	return remap
}

// unionSyms merges two sorted symbol tables, returning the union and
// per-input remaps (old ID to union ID); a nil remap means that
// input's IDs are already the union's.
func unionSyms(a, b []string) (syms []string, amap, bmap []uint32) {
	syms = unionSorted(a, b)
	return syms, remapInto(a, syms), remapInto(b, syms)
}

// remapped returns a copy of in's rows with IDs rewritten into the
// union table syms (remap nil: copied unchanged). remap is monotonic
// (both tables are sorted), so row order is preserved.
func (in *Interned) remapped(syms []string, remap []uint32) *Interned {
	out := &Interned{
		syms:      syms,
		workloads: slices.Clone(in.workloads),
		blocks:    slices.Clone(in.blocks),
		ops:       slices.Clone(in.ops),
	}
	if remap != nil {
		out.remapIDs(remap)
	}
	return out
}

// mergeInterned2 merges two interned profiles: union the tables, then
// sum each section with a linear integer-compare pass.
func mergeInterned2(a, b *Interned) *Interned {
	syms, amap, bmap := unionSyms(a.syms, b.syms)
	if amap != nil {
		a = a.remapped(syms, amap)
	}
	if bmap != nil {
		b = b.remapped(syms, bmap)
	}
	return &Interned{
		syms:      syms,
		workloads: merge2Rows(a.workloads, b.workloads),
		blocks:    merge2Rows(a.blocks, b.blocks),
		ops:       merge2Rows(a.ops, b.ops),
	}
}

// merge2Rows merges two sorted sections into a fresh one, summing the
// mass of equal keys.
func merge2Rows[R keyed[R]](a, b []R) []R {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := make([]R, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		c := a[i].cmpKey(b[j])
		switch {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i].plus(b[j]))
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// parallelMergePairs is the per-round pair count above which a
// tournament round fans out across the worker pool. Below it the
// goroutine hand-off costs more than the merges.
const parallelMergePairs = 16

// mergeInterned merges any number of interned profiles by a pairwise
// tournament: each round halves the profile count with linear two-way
// merges, so total work is O(N log k) integer comparisons. Rounds with
// enough pairs run them in parallel on up to GOMAXPROCS workers —
// safe because every pair writes a distinct slot and integer merge is
// associative, so the result is bit-identical at any parallelism. A
// lone input is returned as-is (Interned is immutable).
func mergeInterned(ins []*Interned) *Interned {
	switch len(ins) {
	case 0:
		return &Interned{}
	case 1:
		return ins[0]
	}
	round := ins
	for len(round) > 1 {
		pairs := len(round) / 2
		next := make([]*Interned, (len(round)+1)/2)
		if len(round)%2 == 1 {
			next[pairs] = round[len(round)-1]
		}
		if workers := runtime.GOMAXPROCS(0); workers > 1 && pairs >= parallelMergePairs {
			if workers > pairs {
				workers = pairs
			}
			var idx atomic.Int64
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					for {
						i := int(idx.Add(1)) - 1
						if i >= pairs {
							return
						}
						next[i] = mergeInterned2(round[2*i], round[2*i+1])
					}
				}()
			}
			wg.Wait()
		} else {
			for i := 0; i < pairs; i++ {
				next[i] = mergeInterned2(round[2*i], round[2*i+1])
			}
		}
		round = next
	}
	return round[0]
}
