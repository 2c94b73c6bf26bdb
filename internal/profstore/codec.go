package profstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// prealloc bounds an up-front slice capacity claimed by a section
// header to preallocCap entries.
func prealloc(n uint64) int {
	if n > preallocCap {
		return preallocCap
	}
	return int(n)
}

// The stored-profile format, following perffile's conventions: a fixed
// magic, a little-endian uint32 version, then varint-packed sections.
// Strings (units, modules, functions, mnemonics) are deduplicated into
// one table and referenced by index, so block rows cost a handful of
// bytes each.
//
// Layout (uvarint = unsigned LEB128, binary/varint):
//
//	header:    magic "HBBPROF1" | uint32 version
//	strings:   uvarint n | n x (uvarint len | bytes)
//	workloads: uvarint n | n x (uvarint nameIdx | uvarint runs)
//	blocks:    uvarint n | n x (uvarint unitIdx | uvarint moduleIdx |
//	           uvarint funcIdx | uvarint addr | uvarint ring |
//	           uvarint len | uvarint count)
//	ops:       uvarint n | n x (uvarint mnemonicIdx | uvarint ring |
//	           uvarint mass)
//
// Sections are written from the canonical profile, so equal profiles
// serialize to identical bytes, and the string table (sorted unique
// strings) is itself canonical.
//
// The on-disk form and the in-memory [Interned] form are the same
// shape — sorted unique string table, index-keyed rows in canonical
// order — so encode is a flat dump of the interned profile and decode
// verifies the invariants instead of rebuilding them: a file this
// package wrote is interned by construction, and the canonicalizing
// path only runs for streams written by something else.

// Magic identifies a stored profile.
const Magic = "HBBPROF1"

// Version is the current format version.
const Version uint32 = 1

// Sentinel errors for malformed streams, mirroring perffile's
// classification pattern: parse failures wrap one of these, so callers
// use errors.Is regardless of the contextual detail in the message.
var (
	// ErrBadMagic reports a stream that is not a stored profile.
	ErrBadMagic = errors.New("profstore: bad magic")
	// ErrTruncatedRecord reports a stream that ends (or claims a
	// length) mid-record.
	ErrTruncatedRecord = errors.New("profstore: truncated record")
	// ErrUnsupportedVersion reports a valid header whose format
	// version this package cannot read.
	ErrUnsupportedVersion = errors.New("profstore: unsupported version")
)

// Decoder guards against lying section headers: a corrupt count must
// fail fast, not allocate unbounded memory.
const (
	maxStrings   = 1 << 22
	maxStringLen = 1 << 16
	maxEntries   = 1 << 26
	// preallocCap bounds up-front slice allocation; a stream claiming
	// more entries earns them by actually carrying the bytes.
	preallocCap = 1 << 12
	// maxBlockLen bounds a block's instruction count.
	maxBlockLen = 1 << 20
)

// Save writes the profile in the stored format. The profile is
// canonicalized first, so any two equal profiles — regardless of how
// they were assembled — produce identical bytes.
func Save(w io.Writer, p *Profile) error {
	buf, err := AppendSave(nil, p)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendSave appends the profile's stored form to dst and returns the
// extended slice — Save without the Writer round-trip, for callers
// assembling frames or reusing buffers.
func AppendSave(dst []byte, p *Profile) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("profstore: Save of a nil profile")
	}
	return Intern(p).appendStored(dst), nil
}

// appendStored dumps the interned profile: the symbol table is already
// the format's sorted unique string table, and row IDs are already the
// table indexes the format wants.
func (in *Interned) appendStored(dst []byte) []byte {
	dst = append(dst, Magic...)
	dst = binary.LittleEndian.AppendUint32(dst, Version)
	dst = binary.AppendUvarint(dst, uint64(len(in.syms)))
	for _, s := range in.syms {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(in.workloads)))
	for _, w := range in.workloads {
		dst = binary.AppendUvarint(dst, uint64(w.name))
		dst = binary.AppendUvarint(dst, w.runs)
	}
	dst = binary.AppendUvarint(dst, uint64(len(in.blocks)))
	for i := range in.blocks {
		b := &in.blocks[i]
		dst = binary.AppendUvarint(dst, uint64(b.unit))
		dst = binary.AppendUvarint(dst, uint64(b.module))
		dst = binary.AppendUvarint(dst, uint64(b.function))
		dst = binary.AppendUvarint(dst, b.addr)
		dst = binary.AppendUvarint(dst, uint64(b.ring))
		dst = binary.AppendUvarint(dst, uint64(b.blen))
		dst = binary.AppendUvarint(dst, b.count)
	}
	dst = binary.AppendUvarint(dst, uint64(len(in.ops)))
	for i := range in.ops {
		o := &in.ops[i]
		dst = binary.AppendUvarint(dst, uint64(o.mnemonic))
		dst = binary.AppendUvarint(dst, uint64(o.ring))
		dst = binary.AppendUvarint(dst, o.mass)
	}
	return dst
}

// byteDecoder walks a fully-buffered stream. Running out of bytes is a
// truncated record by definition — I/O errors cannot happen here, so
// the classification old streaming decoders had to do per read site is
// built into the two primitives.
type byteDecoder struct {
	data []byte
	off  int
}

func (d *byteDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n > 0 {
		d.off += n
		return v, nil
	}
	if n == 0 {
		return 0, fmt.Errorf("%w: %s: %w", ErrTruncatedRecord, what, io.ErrUnexpectedEOF)
	}
	return 0, fmt.Errorf("profstore: reading %s: varint overflows a 64-bit integer", what)
}

func (d *byteDecoder) take(n uint64, what string) ([]byte, error) {
	if uint64(len(d.data)-d.off) < n {
		return nil, fmt.Errorf("%w: %s: %w", ErrTruncatedRecord, what, io.ErrUnexpectedEOF)
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// classifyReadError maps a stream read failure to the sentinel it
// deserves, exactly as perffile does: an early end is a truncated
// record; any other I/O failure keeps its own identity so callers do
// not mistake a retryable read for file corruption. The cause stays on
// the unwrap chain either way.
func classifyReadError(what string, err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %s: %w", ErrTruncatedRecord, what, err)
	}
	return fmt.Errorf("profstore: reading %s: %w", what, err)
}

// badMagicPrefix reports whether a stream that ended early was never a
// stored profile to begin with: a short stream that does not even
// start with the magic is a wrong-file-type error, not a truncated
// one. Only a genuine magic prefix earns the truncation classification.
func badMagicPrefix(data []byte) bool {
	prefix := len(data)
	if prefix > len(Magic) {
		prefix = len(Magic)
	}
	return string(data[:prefix]) != Magic[:prefix]
}

// Load reads one stored profile. Malformed streams return errors
// matching [ErrBadMagic], [ErrTruncatedRecord] or
// [ErrUnsupportedVersion] under errors.Is. The result is canonical:
// a well-formed but unsorted or duplicated stream (which this package
// never writes) is normalized on the way in.
func Load(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		if badMagicPrefix(data) {
			return nil, ErrBadMagic
		}
		return nil, classifyReadError("stream", err)
	}
	return LoadBytes(data)
}

// LoadBytes is Load for a fully-buffered stream.
func LoadBytes(data []byte) (*Profile, error) {
	in, err := LoadInterned(data)
	if err != nil {
		return nil, err
	}
	return in.Profile(), nil
}

// LoadInterned decodes a stored profile straight into interned form,
// without materializing string-keyed rows: row keys stay integer
// tuples against the file's own string table. Files this package
// writes are canonical on disk — sorted unique table, rows ascending
// by integer key — so the decode is a verify-only pass; anything else
// is canonicalized the long way. Error classification matches [Load].
// The returned Interned copies what it needs: data may be reused.
func LoadInterned(data []byte) (*Interned, error) {
	if len(data) < len(Magic)+4 {
		if badMagicPrefix(data) {
			return nil, ErrBadMagic
		}
		return nil, classifyReadError("header", io.ErrUnexpectedEOF)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, fmt.Errorf("%w: %d", ErrUnsupportedVersion, v)
	}
	d := &byteDecoder{data: data, off: len(Magic) + 4}

	nStrings, err := d.uvarint("string table size")
	if err != nil {
		return nil, err
	}
	if nStrings > maxStrings {
		return nil, fmt.Errorf("profstore: implausible string table size %d", nStrings)
	}
	table := make([]string, 0, prealloc(nStrings))
	for i := uint64(0); i < nStrings; i++ {
		n, err := d.uvarint("string length")
		if err != nil {
			return nil, err
		}
		if n > maxStringLen {
			return nil, fmt.Errorf("profstore: implausible string length %d", n)
		}
		b, err := d.take(n, "string")
		if err != nil {
			return nil, err
		}
		table = append(table, string(b))
	}
	symIdx := func(idx uint64, what string) (uint32, error) {
		if idx >= uint64(len(table)) {
			return 0, fmt.Errorf("profstore: %s string index %d out of range (table has %d)",
				what, idx, len(table))
		}
		return uint32(idx), nil
	}
	ring := func(v uint64) (uint8, error) {
		if v > 255 {
			return 0, fmt.Errorf("profstore: implausible ring %d", v)
		}
		return uint8(v), nil
	}

	in := &Interned{syms: table}
	nWorkloads, err := d.uvarint("workload count")
	if err != nil {
		return nil, err
	}
	if nWorkloads > maxEntries {
		return nil, fmt.Errorf("profstore: implausible workload count %d", nWorkloads)
	}
	if nWorkloads > 0 {
		in.workloads = make([]iWorkload, 0, prealloc(nWorkloads))
	}
	for i := uint64(0); i < nWorkloads; i++ {
		nameIdx, err := d.uvarint("workload name")
		if err != nil {
			return nil, err
		}
		name, err := symIdx(nameIdx, "workload name")
		if err != nil {
			return nil, err
		}
		runs, err := d.uvarint("workload runs")
		if err != nil {
			return nil, err
		}
		in.workloads = append(in.workloads, iWorkload{name: name, runs: runs})
	}

	nBlocks, err := d.uvarint("block count")
	if err != nil {
		return nil, err
	}
	if nBlocks > maxEntries {
		return nil, fmt.Errorf("profstore: implausible block count %d", nBlocks)
	}
	if nBlocks > 0 {
		in.blocks = make([]iBlock, 0, prealloc(nBlocks))
	}
	for i := uint64(0); i < nBlocks; i++ {
		var b iBlock
		var fields [7]uint64
		for fi, what := range [7]string{
			"block unit", "block module", "block function",
			"block addr", "block ring", "block length", "block count",
		} {
			fields[fi], err = d.uvarint(what)
			if err != nil {
				return nil, err
			}
		}
		if b.unit, err = symIdx(fields[0], "block unit"); err != nil {
			return nil, err
		}
		if b.module, err = symIdx(fields[1], "block module"); err != nil {
			return nil, err
		}
		if b.function, err = symIdx(fields[2], "block function"); err != nil {
			return nil, err
		}
		b.addr = fields[3]
		if b.ring, err = ring(fields[4]); err != nil {
			return nil, err
		}
		if fields[5] > maxBlockLen {
			return nil, fmt.Errorf("profstore: implausible block length %d", fields[5])
		}
		b.blen = uint32(fields[5])
		b.count = fields[6]
		in.blocks = append(in.blocks, b)
	}

	nOps, err := d.uvarint("op count")
	if err != nil {
		return nil, err
	}
	if nOps > maxEntries {
		return nil, fmt.Errorf("profstore: implausible op count %d", nOps)
	}
	if nOps > 0 {
		in.ops = make([]iOp, 0, prealloc(nOps))
	}
	for i := uint64(0); i < nOps; i++ {
		var o iOp
		mnIdx, err := d.uvarint("op mnemonic")
		if err != nil {
			return nil, err
		}
		if o.mnemonic, err = symIdx(mnIdx, "op mnemonic"); err != nil {
			return nil, err
		}
		rv, err := d.uvarint("op ring")
		if err != nil {
			return nil, err
		}
		if o.ring, err = ring(rv); err != nil {
			return nil, err
		}
		if o.mass, err = d.uvarint("op mass"); err != nil {
			return nil, err
		}
		in.ops = append(in.ops, o)
	}
	// The ops section is the last one: a well-formed stream ends here.
	// Trailing bytes mean the section counts lied (e.g. a corrupted
	// count varint shrank a section), so the mass parsed so far cannot
	// be trusted either.
	if d.off != len(data) {
		return nil, fmt.Errorf("profstore: trailing data after profile")
	}
	if in.isCanonicalInterned() {
		return in, nil
	}
	// A stream some other writer produced: unsorted table or rows,
	// duplicate or unreferenced strings, zero masses. Materialize and
	// re-intern, which canonicalizes — exactly what the accepting fuzz
	// property demands.
	return Intern(in.Profile()), nil
}

// isCanonicalInterned verifies the decode-side invariants the fast
// path relies on: a strictly-ascending symbol table (sorted + unique,
// so ID order is string order) holding only strings some row names,
// and strictly-ascending, zero-free rows.
func (in *Interned) isCanonicalInterned() bool {
	for i := 1; i < len(in.syms); i++ {
		if in.syms[i-1] >= in.syms[i] {
			return false
		}
	}
	used := make([]bool, len(in.syms))
	for i := range in.workloads {
		if in.workloads[i].runs == 0 {
			return false
		}
		if i > 0 && in.workloads[i-1].name >= in.workloads[i].name {
			return false
		}
		used[in.workloads[i].name] = true
	}
	for i := range in.blocks {
		b := &in.blocks[i]
		if b.count == 0 {
			return false
		}
		if i > 0 && iBlockCmp(&in.blocks[i-1], b) >= 0 {
			return false
		}
		used[b.unit], used[b.module], used[b.function] = true, true, true
	}
	for i := range in.ops {
		if in.ops[i].mass == 0 {
			return false
		}
		if i > 0 && iOpCmp(&in.ops[i-1], &in.ops[i]) >= 0 {
			return false
		}
		used[in.ops[i].mnemonic] = true
	}
	return !slices.Contains(used, false)
}
