package zof

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/packet"
)

// batchCorpus is a representative message mix for encode-path tests.
func batchCorpus() []Message {
	return []Message{
		&Hello{},
		&Experimenter{Experimenter: 1, ExpType: 2, Data: []byte("ping")},
		&FlowMod{Command: FlowAdd, Match: sampleMatch(), Priority: 1000,
			IdleTimeout: 30, BufferID: NoBuffer, Actions: sampleActions()},
		&PacketOut{BufferID: NoBuffer, InPort: 2, Actions: sampleActions(), Data: []byte{9, 8, 7}},
		&GroupMod{Command: GroupAdd, GroupType: GroupTypeSelect, GroupID: 9,
			Buckets: []GroupBucket{{Weight: 3, Actions: []Action{Output(1)}}}},
		&StatsRequest{Kind: StatsFlow, TableID: 0xff, PortNo: PortNone, Match: MatchAll()},
	}
}

// TestMarshalAppendMatchesMarshal checks byte equality with the
// allocate-per-message path, prefix preservation, and that a stream of
// appended messages re-parses frame by frame.
func TestMarshalAppendMatchesMarshal(t *testing.T) {
	for _, msg := range batchCorpus() {
		want, err := Marshal(msg, 77)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", msg.Type(), err)
		}
		got, err := MarshalAppend(nil, msg, 77)
		if err != nil {
			t.Fatalf("MarshalAppend(%v): %v", msg.Type(), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: MarshalAppend != Marshal\n got %x\nwant %x", msg.Type(), got, want)
		}
		// Appending must preserve the existing prefix.
		prefix := []byte{0xde, 0xad}
		withPrefix, err := MarshalAppend(prefix, msg, 77)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(withPrefix[:2], prefix) || !bytes.Equal(withPrefix[2:], want) {
			t.Errorf("%v: prefix not preserved", msg.Type())
		}
	}

	// A whole burst appended into one buffer re-parses in order.
	var stream []byte
	var err error
	for i, msg := range batchCorpus() {
		stream, err = MarshalAppend(stream, msg, uint32(i+1))
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, msg := range batchCorpus() {
		got, h, err := Unmarshal(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if h.XID != uint32(i+1) || got.Type() != msg.Type() {
			t.Fatalf("frame %d: type %v xid %d", i, got.Type(), h.XID)
		}
		stream = stream[h.Length:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d trailing bytes", len(stream))
	}
}

// TestSendBatchRoundTrip frames a burst under one flush and checks the
// peer receives every message in order.
func TestSendBatchRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	msgs := batchCorpus()
	if err := ca.SendBatch(msgs...); err != nil {
		t.Fatal(err)
	}
	for i, want := range msgs {
		got, _, err := cb.Receive()
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("message %d: type %v, want %v", i, got.Type(), want.Type())
		}
	}
	// Empty batch is a no-op, not an error.
	if err := ca.SendBatch(); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescedSendsDelivered checks that with auto-flush enabled every
// send still reaches the peer (the flusher picks buffered frames up).
func TestCoalescedSendsDelivered(t *testing.T) {
	a, b := tcpPair(t)
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	ca.SetAutoFlush(0)

	const n = 100
	for i := 0; i < n; i++ {
		if _, err := ca.Send(&Experimenter{Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		msg, _, err := cb.Receive()
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		req, ok := msg.(*Experimenter)
		if !ok || req.Data[0] != byte(i) {
			t.Fatalf("message %d: %#v", i, msg)
		}
	}
}

// TestCloseFlushesCoalescedWrites sends inside a wide flush window and
// closes immediately: Close's final flush must deliver the frame.
func TestCloseFlushesCoalescedWrites(t *testing.T) {
	a, b := tcpPair(t)
	ca, cb := NewConn(a), NewConn(b)
	defer cb.Close()
	ca.SetAutoFlush(10 * time.Second) // flusher will never fire in time

	if _, err := ca.Send(&Experimenter{Data: []byte("last words")}); err != nil {
		t.Fatal(err)
	}
	ca.Close()
	msg, _, err := cb.Receive()
	if err != nil {
		t.Fatalf("pending write lost on close: %v", err)
	}
	req, ok := msg.(*Experimenter)
	if !ok || string(req.Data) != "last words" {
		t.Fatalf("got %#v", msg)
	}
	// Sends after Close must fail, not buffer silently.
	if _, err := ca.Send(&Hello{}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func benchFlowMod() *FlowMod {
	return &FlowMod{
		Command:     FlowAdd,
		Match:       sampleMatch(),
		Priority:    1000,
		IdleTimeout: 30,
		BufferID:    NoBuffer,
		Actions: []Action{
			SetEthDst(packet.MAC{9, 9, 9, 9, 9, 9}),
			Output(4),
		},
	}
}

// BenchmarkMarshal is the allocate-per-message encode path.
func BenchmarkMarshal(b *testing.B) {
	fm := benchFlowMod()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(fm, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalAppend is the pooled encode-into path; steady state
// must not allocate.
func BenchmarkMarshalAppend(b *testing.B) {
	fm := benchFlowMod()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := MarshalAppend(buf[:0], fm, uint32(i))
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

// TestSendBatchXIDs writes a burst under caller-assigned XIDs — the
// transaction engine's pre-registered-watcher path — and rejects a
// length mismatch without writing anything.
func TestSendBatchXIDs(t *testing.T) {
	a, b := tcpPair(t)
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	msgs := batchCorpus()
	xids := make([]uint32, len(msgs))
	for i := range xids {
		xids[i] = uint32(9000 + i)
	}
	if err := ca.SendBatchXIDs(msgs, xids); err != nil {
		t.Fatal(err)
	}
	for i := range msgs {
		_, h, err := cb.Receive()
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if h.XID != xids[i] {
			t.Errorf("message %d: xid %d, want %d", i, h.XID, xids[i])
		}
	}
	if err := ca.SendBatchXIDs(msgs, xids[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
