package profstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// sampleProfile is a small fixed profile exercising every section.
func sampleProfile() *Profile {
	return Canonical(&Profile{
		Workloads: []WorkloadWeight{{Name: "gcc", Runs: 3}, {Name: "povray", Runs: 1}},
		Blocks: []Block{
			{Unit: "gcc", Module: "a.out", Function: "main", Addr: 0x1000, Ring: RingUser, Len: 7, Count: 12345},
			{Unit: "gcc", Module: "vmlinux", Function: "sys_call", Addr: 0xffff800, Ring: RingKernel, Len: 3, Count: 99},
			{Unit: "povray", Module: "a.out", Function: "trace", Addr: 0x2000, Ring: RingUser, Len: 21, Count: 1 << 40},
		},
		Ops: []OpMass{
			{Mnemonic: "add", Ring: RingUser, Mass: 1 << 50},
			{Mnemonic: "mov", Ring: RingKernel, Mass: 5},
			{Mnemonic: "vaddps", Ring: RingUser, Mass: 777},
		},
	})
}

// TestRoundTrip pins save -> load identity, including for the empty
// profile, and that equal profiles serialize identically.
func TestRoundTrip(t *testing.T) {
	for _, p := range []*Profile{sampleProfile(), Merge()} {
		var buf bytes.Buffer
		if err := Save(&buf, p); err != nil {
			t.Fatalf("Save: %v", err)
		}
		got, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("round trip changed the profile:\n%+v\nvs\n%+v", got, p)
		}
		var again bytes.Buffer
		if err := Save(&again, got); err != nil {
			t.Fatalf("re-Save: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Error("save -> load -> save is not byte-stable")
		}
	}
}

// TestRoundTripRandom fuzzes the round trip with generated profiles.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		p := randomProfile(rng)
		var buf bytes.Buffer
		if err := Save(&buf, p); err != nil {
			t.Fatalf("Save: %v", err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		equalProfiles(t, "random round trip", got, p)
	}
}

// TestSaveNil pins the nil guard.
func TestSaveNil(t *testing.T) {
	if err := Save(io.Discard, nil); err == nil {
		t.Fatal("Save(nil) succeeded")
	}
}

// TestLoadBadMagic classifies streams that are not stored profiles.
func TestLoadBadMagic(t *testing.T) {
	for _, stream := range [][]byte{
		[]byte("HBBPERF1\x02\x00\x00\x00"), // a perffile, not a profile
		[]byte("GARBAGE!\x01\x00\x00\x00"),
		[]byte("PROFILE\x00\x01\x00\x00\x00"),
		[]byte("junk"), // shorter than the header but plainly not a profile
		[]byte("x"),
	} {
		if _, err := Load(bytes.NewReader(stream)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("Load(%q) = %v, want ErrBadMagic", stream, err)
		}
	}
	// A genuine magic prefix cut short, by contrast, is truncation:
	// the stream really was (the start of) a stored profile.
	if _, err := Load(bytes.NewReader([]byte(Magic[:5]))); !errors.Is(err, ErrTruncatedRecord) {
		t.Errorf("Load(magic prefix) = %v, want ErrTruncatedRecord", err)
	}
}

// TestLoadRejectsTrailingData pins the end-of-stream check: bytes
// after the last section mean a section count lied (or the file was
// concatenated), so the profile cannot be trusted.
func TestLoadRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	stream := append(buf.Bytes(), "extra"...)
	_, err := Load(bytes.NewReader(stream))
	if err == nil || !containsStr(err.Error(), "trailing data") {
		t.Fatalf("trailing data = %v", err)
	}
}

// TestLoadUnsupportedVersion classifies valid-magic streams from a
// future format.
func TestLoadUnsupportedVersion(t *testing.T) {
	stream := append([]byte(Magic), 9, 0, 0, 0)
	_, err := Load(bytes.NewReader(stream))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Load = %v, want ErrUnsupportedVersion", err)
	}
	if !containsStr(err.Error(), "9") {
		t.Errorf("message does not name the version: %v", err)
	}
}

// TestLoadTruncated cuts a valid stream at every byte boundary: every
// prefix must classify as truncated (or, before the magic completes,
// still truncated via the header read), never succeed, never panic.
func TestLoadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := Load(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("Load of %d/%d-byte prefix succeeded", cut, len(full))
		}
		if !errors.Is(err, ErrTruncatedRecord) {
			t.Fatalf("Load of %d-byte prefix = %v, want ErrTruncatedRecord", cut, err)
		}
	}
	if _, err := Load(bytes.NewReader(full)); err != nil {
		t.Fatalf("full stream failed: %v", err)
	}
}

// TestLoadKeepsIOErrors pins perffile's classification contract: a
// non-EOF read failure is not misreported as truncation.
func TestLoadKeepsIOErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transient network failure")
	r := io.MultiReader(bytes.NewReader(buf.Bytes()[:20]), &failingReader{err: boom})
	_, err := Load(r)
	if err == nil {
		t.Fatal("Load succeeded through a failing reader")
	}
	if errors.Is(err, ErrTruncatedRecord) {
		t.Fatalf("I/O failure misclassified as truncation: %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("cause lost from unwrap chain: %v", err)
	}
}

type failingReader struct{ err error }

func (r *failingReader) Read([]byte) (int, error) { return 0, r.err }

// corrupt builds a stream with a hand-crafted body after a valid
// header.
func corrupt(body ...byte) []byte {
	stream := []byte(Magic)
	stream = append(stream, 1, 0, 0, 0)
	return append(stream, body...)
}

// TestLoadRejectsImplausibleSections pins the allocation guards: lying
// section headers fail fast instead of allocating unbounded memory.
func TestLoadRejectsImplausibleSections(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := map[string][]byte{
		"string table size": corrupt(huge...),
		"string length":     corrupt(append([]byte{1}, huge...)...),
		"workload count":    corrupt(append([]byte{0}, huge...)...), // 0 strings, huge workloads
	}
	for name, stream := range cases {
		_, err := Load(bytes.NewReader(stream))
		if err == nil {
			t.Errorf("%s: implausible stream accepted", name)
			continue
		}
		if !containsStr(err.Error(), "implausible") {
			t.Errorf("%s: error does not classify: %v", name, err)
		}
	}
}

// TestLoadRejectsBadStringIndex pins reference validation.
func TestLoadRejectsBadStringIndex(t *testing.T) {
	// 1 string "w", then 1 workload referencing string index 5.
	body := []byte{1, 1, 'w', 1, 5, 1}
	_, err := Load(bytes.NewReader(corrupt(body...)))
	if err == nil || !containsStr(err.Error(), "out of range") {
		t.Fatalf("bad index = %v", err)
	}
}

// TestLoadDropsUnreferencedStrings pins that a stream whose string
// table names a string no row references — sorted, unique and
// otherwise canonical — loads with a dense table, so re-saving it
// writes the bytes Save gives the same profile.
func TestLoadDropsUnreferencedStrings(t *testing.T) {
	// Strings "u" and "w"; one workload naming "w"; no blocks or ops.
	stream := corrupt(2, 1, 'u', 1, 'w', 1, 1, 1, 0, 0)
	in, err := LoadInterned(stream)
	if err != nil {
		t.Fatalf("LoadInterned: %v", err)
	}
	if !reflect.DeepEqual(in.syms, []string{"w"}) {
		t.Errorf("table = %q, want [w]", in.syms)
	}
	want := &Profile{Workloads: []WorkloadWeight{{Name: "w", Runs: 1}}}
	if got := in.Profile(); !reflect.DeepEqual(got, want) {
		t.Fatalf("profile = %+v, want %+v", got, want)
	}
	if !bytes.Equal(in.appendStored(nil), mustBytes(t, want)) {
		t.Error("re-saving the loaded stream does not give the canonical bytes")
	}
}

// FuzzLoadProfile drives the decoder with arbitrary bytes, mirroring
// perffile's corrupted-stream error tests: Load must never panic, and
// anything it accepts must re-serialize and re-load to the identical
// canonical profile (the decoder's output is always in-domain).
func FuzzLoadProfile(f *testing.F) {
	// Seed corpus: a real stream, the empty profile, and the
	// interesting failure shapes.
	var real, empty bytes.Buffer
	if err := Save(&real, sampleProfile()); err != nil {
		f.Fatal(err)
	}
	if err := Save(&empty, Merge()); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), 1, 0, 0, 0))
	f.Add(append([]byte(Magic), 9, 0, 0, 0))
	f.Add([]byte("HBBPERF1\x02\x00\x00\x00"))
	f.Add(real.Bytes()[:real.Len()/2])
	f.Add(corrupt(1, 1, 'w', 1, 5, 1))
	f.Add(corrupt(binary.AppendUvarint(nil, 1<<40)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Save(&buf, p); err != nil {
			t.Fatalf("accepted profile failed to save: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-load of accepted profile failed: %v", err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("accepted profile is not canonical-stable:\n%+v\nvs\n%+v", p, again)
		}
	})
}

// TestFormatIsCompact sanity-checks the varint+string-table encoding:
// a thousand-block profile should cost a handful of bytes per block,
// not a fixed-width record.
func TestFormatIsCompact(t *testing.T) {
	raw := &Profile{Workloads: []WorkloadWeight{{Name: "w", Runs: 1}}}
	for i := 0; i < 1000; i++ {
		raw.Blocks = append(raw.Blocks, Block{
			Unit: "w", Module: "a.out", Function: fmt.Sprintf("fn%02d", i%40),
			Addr: uint64(i) * 64, Len: uint32(1 + i%30), Count: uint64(i) * 1000,
		})
	}
	var buf bytes.Buffer
	if err := Save(&buf, Canonical(raw)); err != nil {
		t.Fatal(err)
	}
	if perBlock := buf.Len() / 1000; perBlock > 16 {
		t.Errorf("%d bytes per block; the string table or varints regressed", perBlock)
	}
}
