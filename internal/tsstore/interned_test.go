package tsstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hbbp/internal/profstore"
)

// dirFiles reads every file of a series directory by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestAppendEpochInternedMatchesAppendEpoch pins the interned append
// path to the string one. One series takes every per-run profile
// through AppendEpoch; the other takes each epoch as the interned
// snapshot of an aggregator over the same profiles (the fleet roll's
// route) and late arrivals as LoadInterned decodes (the wire's route).
// Epochs arrive out of order. Every Window over every range answers
// byte-identically between the two — raw, after Downsample, after late
// arrivals into folded windows — and both save to identical
// directories whose Open → Save round trip is byte-stable.
func TestAppendEpochInternedMatchesAppendEpoch(t *testing.T) {
	const epochs = 48
	rng := rand.New(rand.NewSource(21))
	var str, itn Series
	for _, e := range rng.Perm(epochs) {
		agg := profstore.NewAggregator()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			p := epochProfile(rng, uint64(e))
			str.AppendEpoch(uint64(e), p)
			agg.Ingest(p)
		}
		itn.AppendEpochInterned(uint64(e), agg.SnapshotInterned())
	}

	check := func(stage string, a, b *Series) {
		t.Helper()
		if !reflect.DeepEqual(a.Spans(), b.Spans()) {
			t.Fatalf("%s: spans %v != %v", stage, b.Spans(), a.Spans())
		}
		for since := uint64(0); since <= epochs; since++ {
			for until := since; until <= epochs; until++ {
				pa, sa := a.Window(since, until)
				pb, sb := b.Window(since, until)
				if !reflect.DeepEqual(sa, sb) {
					t.Fatalf("%s: Window(%d,%d) spans %v != %v", stage, since, until, sb, sa)
				}
				if !bytes.Equal(profileBytes(t, pa), profileBytes(t, pb)) {
					t.Fatalf("%s: Window(%d,%d) bytes differ", stage, since, until)
				}
			}
		}
	}
	check("raw", &str, &itn)

	if str.Downsample(DefaultRetention(), epochs-1) == 0 {
		t.Fatal("downsample folded nothing")
	}
	itn.Downsample(DefaultRetention(), epochs-1)
	check("downsampled", &str, &itn)

	for k := 0; k < 8; k++ {
		e := uint64(rng.Intn(epochs))
		p := epochProfile(rng, e)
		str.AppendEpoch(e, p)
		in, err := profstore.LoadInterned(profileBytes(t, p))
		if err != nil {
			t.Fatal(err)
		}
		itn.AppendEpochInterned(e, in)
	}
	check("late arrivals", &str, &itn)

	strDir, itnDir := t.TempDir(), t.TempDir()
	if err := str.Save(strDir); err != nil {
		t.Fatal(err)
	}
	if err := itn.Save(itnDir); err != nil {
		t.Fatal(err)
	}
	saved := dirFiles(t, itnDir)
	if !reflect.DeepEqual(dirFiles(t, strDir), saved) {
		t.Fatal("the two series save to different directories")
	}
	reopened, err := Open(itnDir)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", &str, reopened)
	resaveDir := t.TempDir()
	if err := reopened.Save(resaveDir); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dirFiles(t, resaveDir), saved) {
		t.Fatal("Open → Save round trip changed the directory")
	}
}
