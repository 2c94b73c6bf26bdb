package tsstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hbbp/internal/profstore"
)

// The on-disk layout: a directory holding one stored-profile file per
// retained window (the profstore codec unchanged — each window file is
// a plain "HBBPROF1" profile any tooling can read on its own) plus a
// versioned index file binding them into a series.
//
// Index format, following the perffile/profstore conventions — fixed
// magic, little-endian uint32 version, varint-packed records, nothing
// after the last one:
//
//	header:  magic "HBBPSER1" | uint32 version
//	windows: uvarint n | n x (uvarint start | uvarint extent(=end-start) |
//	         uvarint size | uint32 crc32c)
//
// size and crc32c (Castagnoli, the fleetwire polynomial) are the
// window file's byte length and checksum: Open refuses a window file
// that does not match its index entry, so a torn copy, a stale file
// from an interrupted save, or a hand-swapped profile is caught before
// its mass pollutes a query. Writes are atomic per file (same-dir temp
// plus rename, index last), so a crash mid-save leaves the previous
// consistent store in place.

// IndexMagic identifies a series index file.
const IndexMagic = "HBBPSER1"

// IndexVersion is the current index format version.
const IndexVersion uint32 = 1

// IndexName is the index file's name inside a series directory.
const IndexName = "series.idx"

// Sentinel errors for malformed stores, mirroring profstore's
// classification pattern: decode failures wrap one of these for
// errors.Is, with contextual detail in the message.
var (
	// ErrBadMagic reports an index file that is not a series index.
	ErrBadMagic = errors.New("tsstore: bad series index magic")
	// ErrTruncatedRecord reports an index that ends mid-record.
	ErrTruncatedRecord = errors.New("tsstore: truncated series index")
	// ErrUnsupportedVersion reports a valid index header whose format
	// version this package cannot read.
	ErrUnsupportedVersion = errors.New("tsstore: unsupported series index version")
	// ErrWindowMismatch reports a window profile file whose size or
	// checksum disagrees with the index — a torn write, a stale file
	// or a swap; the store cannot be trusted until re-saved.
	ErrWindowMismatch = errors.New("tsstore: window file does not match index")
)

// Decoder bounds, in the profstore spirit: a corrupt count must fail
// fast, not allocate unbounded memory.
const (
	maxIndexWindows = 1 << 20
	indexPrealloc   = 1 << 10
)

// indexEntry is one decoded index record.
type indexEntry struct {
	span Span
	size uint64
	crc  uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendIndex serializes the index for the given entries.
func appendIndex(buf []byte, entries []indexEntry) []byte {
	buf = append(buf, IndexMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, IndexVersion)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, e.span.Start)
		buf = binary.AppendUvarint(buf, e.span.End-e.span.Start)
		buf = binary.AppendUvarint(buf, e.size)
		buf = binary.LittleEndian.AppendUint32(buf, e.crc)
	}
	return buf
}

// classifyIndexReadError maps a mid-stream failure onto the sentinel
// it deserves: an early end is truncation, anything else keeps its own
// identity on the unwrap chain.
func classifyIndexReadError(what string, err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %s: %w", ErrTruncatedRecord, what, err)
	}
	return fmt.Errorf("tsstore: reading %s: %w", what, err)
}

// readIndex decodes a series index stream. Malformed streams return
// errors matching ErrBadMagic, ErrTruncatedRecord or
// ErrUnsupportedVersion under errors.Is; structurally impossible
// indexes (overlapping or unsorted windows, lying counts) are plain
// errors. Kept free of any filesystem dependency so the fuzz target
// can drive it with raw bytes.
func readIndex(r io.Reader) ([]indexEntry, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(IndexMagic)+4)
	if n, err := io.ReadFull(br, head); err != nil {
		// A short stream that does not even start with the magic was
		// never a series index; only a genuine magic prefix earns the
		// truncation classification.
		prefix := n
		if prefix > len(IndexMagic) {
			prefix = len(IndexMagic)
		}
		if string(head[:prefix]) != IndexMagic[:prefix] {
			return nil, ErrBadMagic
		}
		return nil, classifyIndexReadError("header", err)
	}
	if string(head[:len(IndexMagic)]) != IndexMagic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(head[len(IndexMagic):]); v != IndexVersion {
		return nil, fmt.Errorf("%w: %d", ErrUnsupportedVersion, v)
	}
	uvarint := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, classifyIndexReadError(what, err)
		}
		return v, nil
	}
	n, err := uvarint("window count")
	if err != nil {
		return nil, err
	}
	if n > maxIndexWindows {
		return nil, fmt.Errorf("tsstore: implausible window count %d", n)
	}
	pre := n
	if pre > indexPrealloc {
		pre = indexPrealloc
	}
	entries := make([]indexEntry, 0, pre)
	for i := uint64(0); i < n; i++ {
		var e indexEntry
		start, err := uvarint("window start")
		if err != nil {
			return nil, err
		}
		extent, err := uvarint("window extent")
		if err != nil {
			return nil, err
		}
		if extent > ^uint64(0)-start {
			return nil, fmt.Errorf("tsstore: window %d span overflows: start %d extent %d", i, start, extent)
		}
		e.span = Span{Start: start, End: start + extent}
		if e.size, err = uvarint("window size"); err != nil {
			return nil, err
		}
		var crc [4]byte
		if _, err := io.ReadFull(br, crc[:]); err != nil {
			return nil, classifyIndexReadError("window checksum", err)
		}
		e.crc = binary.LittleEndian.Uint32(crc[:])
		if len(entries) > 0 && entries[len(entries)-1].span.End >= e.span.Start {
			return nil, fmt.Errorf("tsstore: windows %s and %s out of order or overlapping",
				entries[len(entries)-1].span, e.span)
		}
		entries = append(entries, e)
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("tsstore: trailing data after series index")
	} else if err != io.EOF {
		return nil, fmt.Errorf("tsstore: reading trailer: %w", err)
	}
	return entries, nil
}

// windowFileName is the stored-profile file for one span.
func windowFileName(s Span) string {
	return fmt.Sprintf("w%016x-%016x.hbbprof", s.Start, s.End)
}

// Save writes the series to dir (created if missing): one profstore
// file per window, then the index, every file via a same-directory
// temp plus rename so readers and crashes see either the previous
// consistent store or the new one — never a torn mix the index would
// disown. Stale window files from earlier, finer-grained saves are
// removed last; a crash before that point leaves them inert (the index
// no longer references them, and Open ignores unreferenced files).
func (s *Series) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries := make([]indexEntry, 0, len(s.windows))
	live := make(map[string]bool, len(s.windows)+1)
	live[IndexName] = true
	var buf []byte
	for _, w := range s.windows {
		var err error
		if buf, err = profstore.AppendSave(buf[:0], w.in.Profile()); err != nil {
			return fmt.Errorf("tsstore: serializing window %s: %w", w.span, err)
		}
		name := windowFileName(w.span)
		live[name] = true
		if err := writeFileAtomic(dir, name, buf); err != nil {
			return fmt.Errorf("tsstore: writing window %s: %w", w.span, err)
		}
		entries = append(entries, indexEntry{
			span: w.span,
			size: uint64(len(buf)),
			crc:  crc32.Checksum(buf, castagnoli),
		})
	}
	if err := writeFileAtomic(dir, IndexName, appendIndex(nil, entries)); err != nil {
		return fmt.Errorf("tsstore: writing index: %w", err)
	}
	// Sweep stale window files (from saves of a finer-grained past
	// state) so the directory holds exactly the retained store.
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil // the store itself is complete; the sweep is best-effort
	}
	for _, de := range names {
		if name := de.Name(); !live[name] &&
			strings.HasPrefix(name, "w") && strings.HasSuffix(name, ".hbbprof") {
			os.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

// writeFileAtomic stages data in a same-directory temp file and
// renames it over name.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tsstore-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// Open loads a series from dir. A directory without an index (or a
// nonexistent one) opens as an empty series — a fresh store needs no
// ceremony; anything else malformed returns a classified error:
// ErrBadMagic / ErrTruncatedRecord / ErrUnsupportedVersion for the
// index itself, ErrWindowMismatch for a window file whose bytes
// disagree with the index, and the profstore sentinels for a window
// file that matches its checksum but was written corrupt.
func Open(dir string) (*Series, error) {
	f, err := os.Open(filepath.Join(dir, IndexName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &Series{}, nil
		}
		return nil, err
	}
	defer f.Close()
	entries, err := readIndex(f)
	if err != nil {
		return nil, err
	}
	s := &Series{windows: make([]window, 0, len(entries))}
	for _, e := range entries {
		name := windowFileName(e.span)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("%w: window %s: file %s is missing", ErrWindowMismatch, e.span, name)
			}
			return nil, fmt.Errorf("tsstore: reading window %s: %w", e.span, err)
		}
		if uint64(len(data)) != e.size {
			return nil, fmt.Errorf("%w: window %s: %d bytes on disk, index says %d",
				ErrWindowMismatch, e.span, len(data), e.size)
		}
		if crc := crc32.Checksum(data, castagnoli); crc != e.crc {
			return nil, fmt.Errorf("%w: window %s: checksum %08x, index says %08x",
				ErrWindowMismatch, e.span, crc, e.crc)
		}
		in, err := profstore.LoadInterned(data)
		if err != nil {
			return nil, fmt.Errorf("tsstore: window %s: %w", e.span, err)
		}
		s.windows = append(s.windows, window{span: e.span, in: in})
	}
	// readIndex already rejects unsorted or overlapping entries, but
	// assert the invariant the query path depends on anyway.
	if !sort.SliceIsSorted(s.windows, func(i, j int) bool {
		return s.windows[i].span.Start < s.windows[j].span.Start
	}) {
		return nil, fmt.Errorf("tsstore: index windows not ascending")
	}
	return s, nil
}
