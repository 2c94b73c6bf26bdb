package fleetserver

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"hbbp/internal/fleetwire"
	"hbbp/internal/profstore"
)

// TestWireV1ProfileFrames drives the wire-v1 single-profile exchange,
// which the client no longer speaks (it sends every profile in a batch
// frame), over a raw connection: a FrameProfile is answered as a batch
// of one, and its verdict comes back as the v1 Ack or Nack. A re-send
// is a duplicate Ack even while the ingest queue is held full, junk
// payload bytes are NackBadProfile, a full queue is NackOverloaded, and
// the snapshot is the offline merge of exactly the acked profiles.
func TestWireV1ProfileFrames(t *testing.T) {
	const delay = 50 * time.Millisecond
	s := startServer(t, Config{
		Queue:           1,
		Workers:         1,
		EnqueueWait:     time.Millisecond,
		testIngestDelay: delay,
	})

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := fleetwire.NewConn(conn, fleetwire.ConnConfig{ReadTimeout: 10 * time.Second, WriteTimeout: time.Second})
	if err := wc.WritePreamble(); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteFrame(fleetwire.FrameHello,
		fleetwire.AppendHello(nil, fleetwire.Hello{Tenant: "acme", Agent: "v1"})); err != nil {
		t.Fatal(err)
	}
	if err := wc.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.ReadFrame(); err != nil || typ != fleetwire.FrameWelcome {
		t.Fatalf("welcome = %v, %v", typ, err)
	}

	// send writes one v1 profile frame and returns the reply's type and
	// payload.
	send := func(seq uint64, body []byte) (fleetwire.FrameType, []byte) {
		t.Helper()
		if err := wc.WriteFrame(fleetwire.FrameProfile,
			fleetwire.AppendProfile(nil, fleetwire.ProfileHeader{Seq: seq, Epoch: 1}, body)); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := wc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		return typ, payload
	}
	wantAck := func(seq uint64, dup bool, typ fleetwire.FrameType, payload []byte) {
		t.Helper()
		if typ != fleetwire.FrameAck {
			t.Fatalf("seq %d answered with %v, want %v", seq, typ, fleetwire.FrameAck)
		}
		ack, err := fleetwire.ParseAck(payload)
		if err != nil || ack != (fleetwire.Ack{Seq: seq, Duplicate: dup}) {
			t.Fatalf("seq %d ack = %+v, %v; want duplicate=%v", seq, ack, err, dup)
		}
	}
	wantNack := func(seq uint64, code fleetwire.NackCode, typ fleetwire.FrameType, payload []byte) {
		t.Helper()
		if typ != fleetwire.FrameNack {
			t.Fatalf("seq %d answered with %v, want %v", seq, typ, fleetwire.FrameNack)
		}
		nack, err := fleetwire.ParseNack(payload)
		if err != nil || nack.Seq != seq || nack.Code != code {
			t.Fatalf("seq %d nack = %+v, %v; want %v", seq, nack, err, code)
		}
	}

	rng := rand.New(rand.NewSource(21))
	var acked []*profstore.Profile
	p1 := testProfile(rng, "gcc")
	typ, payload := send(1, saveBytes(t, p1))
	wantAck(1, false, typ, payload)
	acked = append(acked, p1)

	// Hold the queue full: the worker sits in a 10-entry job for another
	// tenant (10 × delay) while a second job occupies the one queue
	// slot. The second send completes only once the worker has taken
	// the first, so from here the queue is full until that job ends.
	hold := s.tenantFor("hold")
	holder := hold.agent("holder")
	body := saveBytes(t, testProfile(rng, "hold"))
	var seq uint64
	holdJob := func(n int) *job {
		j := &job{t: hold, agent: holder, done: make(chan struct{}, 1)}
		for i := 0; i < n; i++ {
			seq++
			j.entries = append(j.entries, fleetwire.BatchEntry{Seq: seq, Epoch: 1, Profile: body})
		}
		return j
	}
	busy, queued := holdJob(10), holdJob(1)
	s.queue <- busy
	s.queue <- queued

	typ, payload = send(1, saveBytes(t, p1))
	wantAck(1, true, typ, payload)
	typ, payload = send(2, saveBytes(t, testProfile(rng, "gcc")))
	wantNack(2, fleetwire.NackOverloaded, typ, payload)
	<-busy.done
	<-queued.done

	typ, payload = send(3, []byte("not a stored profile"))
	wantNack(3, fleetwire.NackBadProfile, typ, payload)
	p4 := testProfile(rng, "gcc")
	typ, payload = send(4, saveBytes(t, p4))
	wantAck(4, false, typ, payload)
	acked = append(acked, p4)

	ts := tenantStats(t, s, "acme")
	if ts.Merged != 2 || ts.Duplicates != 1 || ts.Shed != 1 || ts.Rejected != 1 || ts.Batches != 0 {
		t.Errorf("ledger = %+v, want 2 merged, 1 duplicate, 1 shed, 1 rejected, 0 batches", ts)
	}
	if !bytes.Equal(saveBytes(t, s.Snapshot("acme", 1)), saveBytes(t, profstore.Merge(acked...))) {
		t.Error("snapshot diverges from the offline merge of the acked v1 profiles")
	}
}
