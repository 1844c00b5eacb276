package zof

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/packet"
)

// roundTrip marshals msg, unmarshals it, and returns the reborn message.
func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	b, err := Marshal(msg, 42)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", msg.Type(), err)
	}
	got, h, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", msg.Type(), err)
	}
	if h.XID != 42 || h.Type != msg.Type() || int(h.Length) != len(b) {
		t.Fatalf("header = %+v for %v (len %d)", h, msg.Type(), len(b))
	}
	return got
}

func sampleMatch() Match {
	return Match{
		Wildcards: WVLAN | WTPSrc,
		InPort:    3,
		EthSrc:    packet.MAC{1, 2, 3, 4, 5, 6},
		EthDst:    packet.MAC{6, 5, 4, 3, 2, 1},
		EtherType: packet.EtherTypeIPv4,
		IPProto:   packet.ProtoTCP,
		IPSrc:     packet.IPv4Addr{10, 1, 0, 0},
		IPDst:     packet.IPv4Addr{10, 2, 0, 9},
		SrcPrefix: 16,
		DstPrefix: 32,
		TPDst:     80,
	}
}

func sampleActions() []Action {
	return []Action{
		SetEthDst(packet.MAC{9, 9, 9, 9, 9, 9}),
		SetIPDst(packet.IPv4Addr{192, 168, 0, 1}),
		SetTPDst(8080),
		SetVLAN(7),
		Output(4),
		OutputController(128),
	}
}

// allMessages builds one or more messages of every type; the fuzz
// corpus under testdata/fuzz/FuzzUnmarshal holds their frames.
func allMessages() []Message {
	return []Message{
		&Hello{},
		&Error{Code: ErrCodeBadMatch, Detail: "no such field"},
		&EchoRequest{Data: []byte("ping")},
		&EchoReply{Data: []byte("pong")},
		&FeaturesRequest{},
		&FeaturesReply{
			DPID: 0x1122334455667788, NumTables: 4, Capabilities: CapFlowStats | CapGroups,
			Ports: []PortInfo{
				{No: 1, HWAddr: packet.MAC{2, 0, 0, 0, 0, 1}, Name: "eth1", SpeedMbps: 10000},
				{No: 2, HWAddr: packet.MAC{2, 0, 0, 0, 0, 2}, Name: "eth2", State: PortStateLinkDown},
			},
		},
		&PacketIn{BufferID: NoBuffer, TotalLen: 99, InPort: 7, TableID: 1,
			Reason: ReasonNoMatch, Cookie: 0xabc, Data: []byte{1, 2, 3}},
		&PacketOut{BufferID: NoBuffer, InPort: 2, Actions: sampleActions(), Data: []byte{9, 8}},
		&FlowMod{Command: FlowAdd, TableID: 0, Match: sampleMatch(), Cookie: 5, CookieMask: 0xff << 40,
			IdleTimeout: 30, HardTimeout: 300, Priority: 1000, BufferID: NoBuffer,
			Flags: FlagSendFlowRemoved, Actions: sampleActions()},
		&FlowRemoved{Match: sampleMatch(), Cookie: 5, Priority: 1000,
			Reason: RemovedIdleTimeout, TableID: 0, DurationNanos: 12345,
			PacketCount: 10, ByteCount: 1000},
		&PortStatus{Reason: PortModified, Port: PortInfo{No: 3, Name: "wan0", State: PortStateLinkDown}},
		&StatsRequest{Kind: StatsFlow, TableID: 0xff, PortNo: PortNone, Match: MatchAll()},
		&StatsReply{Kind: StatsFlow, Flows: []FlowStats{{
			TableID: 1, Priority: 10, Match: sampleMatch(), Cookie: 9,
			DurationNanos: 77, IdleTimeout: 5, HardTimeout: 50,
			PacketCount: 3, ByteCount: 180, Actions: sampleActions()[:2],
		}}},
		&StatsReply{Kind: StatsAggregate, Aggregate: AggregateStats{PacketCount: 1, ByteCount: 2, FlowCount: 3}},
		&StatsReply{Kind: StatsPort, Ports: []PortStats{{PortNo: 1, RxPackets: 2, TxBytes: 3, RxDropped: 4}}},
		&StatsReply{Kind: StatsTable, Tables: []TableStats{{TableID: 0, ActiveCount: 5, LookupCount: 6, MatchedCount: 7}}},
		&BarrierRequest{},
		&BarrierReply{},
		&RoleRequest{Role: RoleMaster, GenerationID: 17},
		&RoleReply{Role: RoleMaster, GenerationID: 17},
		&GroupMod{Command: GroupAdd, GroupType: GroupTypeSelect, GroupID: 9,
			Buckets: []GroupBucket{
				{Weight: 3, Actions: []Action{Output(1)}},
				{Weight: 5, WatchPort: 2, Actions: sampleActions()[:2]},
			}},
		&GroupMod{Command: GroupDelete, GroupID: 9},
		&Experimenter{Experimenter: 0x7a656e, ExpType: 3, Data: []byte(`{"term":7}`)},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, msg := range allMessages() {
		got := roundTrip(t, msg)
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%v round trip:\n got %#v\nwant %#v", msg.Type(), got, msg)
		}
	}
}

func TestRoundTripEmptySlices(t *testing.T) {
	// nil and empty action/data slices must survive (as either nil or
	// empty — semantically equal).
	m := &PacketOut{BufferID: 1, InPort: 2}
	got := roundTrip(t, m).(*PacketOut)
	if len(got.Actions) != 0 || len(got.Data) != 0 {
		t.Errorf("got %#v", got)
	}
	fr := &FeaturesReply{DPID: 1}
	gotFR := roundTrip(t, fr).(*FeaturesReply)
	if len(gotFR.Ports) != 0 {
		t.Errorf("ports = %v", gotFR.Ports)
	}
}

func TestHeaderErrors(t *testing.T) {
	b, _ := Marshal(&Hello{}, 1)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"short", func(b []byte) []byte { return b[:4] }, ErrShortMessage},
		{"version", func(b []byte) []byte { b[0] = 99; return b }, ErrBadVersion},
		{"type", func(b []byte) []byte { b[1] = 200; return b }, ErrBadType},
		{"length", func(b []byte) []byte { b[3] = 2; return b }, ErrShortMessage},
	}
	for _, tc := range cases {
		buf := tc.mutate(append([]byte(nil), b...))
		if _, _, err := Unmarshal(buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeBodyMalformed(t *testing.T) {
	// Truncated bodies for every fixed-size message must error, not panic.
	full := []Message{
		&FeaturesReply{Ports: []PortInfo{{No: 1}}},
		&PacketIn{Data: []byte{1}},
		&FlowMod{Match: sampleMatch(), Actions: sampleActions()},
		&FlowRemoved{},
		&PortStatus{},
		&StatsRequest{},
		&RoleRequest{Role: RoleSlave},
	}
	for _, msg := range full {
		b, _ := Marshal(msg, 1)
		body := b[HeaderLen:]
		for n := 0; n < len(body); n++ {
			fresh := NewMessage(msg.Type())
			if err := fresh.DecodeBody(body[:n]); err == nil {
				// Some prefixes may parse if trailing data is optional
				// (e.g. PacketIn with empty payload); only flag clearly
				// impossible ones.
				if n < 8 && msg.Type() != TypePacketIn {
					t.Errorf("%v: truncated body len %d decoded without error", msg.Type(), n)
				}
			}
		}
	}
}

func TestActionCountOverflow(t *testing.T) {
	// An action count larger than the remaining bytes must be rejected.
	m := &PacketOut{Actions: sampleActions()}
	b, _ := Marshal(m, 1)
	// action count lives right after bufferID(4)+inPort(4).
	off := HeaderLen + 8
	b[off] = 0xff
	b[off+1] = 0xff
	var out PacketOut
	if err := out.DecodeBody(b[HeaderLen:]); err == nil {
		t.Error("oversized action count accepted")
	}
}

func TestMatchesFrame(t *testing.T) {
	// Build a TCP frame 10.1.2.3:5555 -> 10.2.0.9:80.
	buf := packet.NewBuffer(128)
	tcp := packet.TCP{SrcPort: 5555, DstPort: 80}
	tcp.SerializeTo(buf)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP,
		Src: packet.IPv4Addr{10, 1, 2, 3}, Dst: packet.IPv4Addr{10, 2, 0, 9}}
	ip.SerializeTo(buf)
	eth := packet.Ethernet{Dst: packet.MAC{6, 5, 4, 3, 2, 1}, Src: packet.MAC{1, 2, 3, 4, 5, 6},
		EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(buf)
	var f packet.Frame
	if err := packet.Decode(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}

	m := sampleMatch() // wants in_port=3, src 10.1/16, dst 10.2.0.9/32, tp_dst 80
	if !m.MatchesFrame(&f, 3) {
		t.Error("should match on port 3")
	}
	if m.MatchesFrame(&f, 4) {
		t.Error("should not match on port 4")
	}
	m2 := m
	m2.TPDst = 443
	if m2.MatchesFrame(&f, 3) {
		t.Error("should not match tp_dst 443")
	}
	m3 := m
	m3.IPSrc = packet.IPv4Addr{10, 9, 0, 0}
	if m3.MatchesFrame(&f, 3) {
		t.Error("should not match src prefix 10.9/16")
	}
	m4 := m
	m4.SrcPrefix = 8 // 10/8 still covers 10.1.2.3
	if !m4.MatchesFrame(&f, 3) {
		t.Error("10/8 should match")
	}
	ma := MatchAll()
	if !ma.MatchesFrame(&f, 1) {
		t.Error("MatchAll should match everything")
	}
	// VLAN-constrained match must fail for untagged frame.
	m5 := MatchAll()
	m5.Wildcards &^= WVLAN
	m5.VLAN = 10
	if m5.MatchesFrame(&f, 3) {
		t.Error("vlan match should fail on untagged frame")
	}
}

func TestExactMatchMatchesOwnFrame(t *testing.T) {
	buf := packet.NewBuffer(128)
	udp := packet.UDP{SrcPort: 1234, DstPort: 53}
	udp.SerializeTo(buf)
	ip := packet.IPv4{TTL: 9, Protocol: packet.ProtoUDP,
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 2}}
	ip.SerializeTo(buf)
	eth := packet.Ethernet{Dst: packet.MAC{2}, Src: packet.MAC{1}, EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(buf)
	var f packet.Frame
	if err := packet.Decode(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	m := ExactMatch(&f, 5)
	if !m.MatchesFrame(&f, 5) {
		t.Error("exact match must match its own frame")
	}
	if m.MatchesFrame(&f, 6) {
		t.Error("exact match pins in_port")
	}
}

func TestSubsumes(t *testing.T) {
	all := MatchAll()
	specific := sampleMatch()
	if !all.Subsumes(&specific) {
		t.Error("MatchAll must subsume everything")
	}
	if specific.Subsumes(&all) {
		t.Error("specific must not subsume MatchAll")
	}
	if !specific.Subsumes(&specific) {
		t.Error("match must subsume itself")
	}
	wider := specific
	wider.SrcPrefix = 8
	if !wider.Subsumes(&specific) {
		t.Error("/8 subsumes /16 of same prefix")
	}
	if specific.Subsumes(&wider) {
		t.Error("/16 must not subsume /8")
	}
	other := specific
	other.InPort = 9
	if other.Subsumes(&specific) || specific.Subsumes(&other) {
		t.Error("differing exact fields must not subsume")
	}
}

func TestMatchString(t *testing.T) {
	if MatchAll().String() != "any" {
		t.Errorf("MatchAll = %q", MatchAll().String())
	}
	s := sampleMatch().String()
	for _, want := range []string{"in_port=3", "ip_src=10.1.0.0/16", "tp_dst=80"} {
		if !contains(s, want) {
			t.Errorf("match string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestActionString(t *testing.T) {
	cases := map[string]Action{
		"output:4":                   Output(4),
		"output:flood":               Output(PortFlood),
		"output:controller(max=128)": OutputController(128),
		"strip_vlan":                 StripVLAN(),
		"group:9":                    Group(9),
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

// tcpPair returns two ends of a loopback TCP connection. Unlike net.Pipe
// it buffers writes, so symmetric exchanges (both sides send Hello first)
// do not deadlock.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	a, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		a.Close()
		t.Fatal(r.err)
	}
	return a, r.c
}

func TestConnExchange(t *testing.T) {
	a, b := tcpPair(t)
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	done := make(chan error, 1)
	go func() {
		done <- cb.Handshake()
	}()
	if err := ca.Handshake(); err != nil {
		t.Fatalf("handshake a: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("handshake b: %v", err)
	}

	// Request/response with XID continuity.
	go func() {
		msg, h, err := cb.Receive()
		if err != nil {
			done <- err
			return
		}
		req := msg.(*Experimenter)
		done <- cb.SendXID(&Experimenter{ExpType: 1, Data: req.Data}, h.XID)
	}()
	xid, err := ca.Send(&Experimenter{Data: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	msg, h, err := ca.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rep, ok := msg.(*Experimenter)
	if !ok || h.XID != xid || string(rep.Data) != "abc" {
		t.Fatalf("reply = %#v xid=%d want %d", msg, h.XID, xid)
	}
}

func TestConnManyMessages(t *testing.T) {
	a, b := tcpPair(t)
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	const n = 200
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			fm := &FlowMod{Command: FlowAdd, Priority: uint16(i), Match: MatchAll(),
				Actions: []Action{Output(uint32(i))}}
			if _, err := ca.Send(fm); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		msg, _, err := cb.Receive()
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		fm := msg.(*FlowMod)
		if int(fm.Priority) != i || fm.Actions[0].Port != uint32(i) {
			t.Fatalf("message %d out of order: %+v", i, fm)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestConnCloseUnblocksReceive(t *testing.T) {
	a, b := tcpPair(t)
	ca, cb := NewConn(a), NewConn(b)
	done := make(chan error, 1)
	go func() {
		_, _, err := cb.Receive()
		done <- err
	}()
	ca.Close()
	a.Close()
	if err := <-done; err == nil {
		t.Fatal("Receive returned nil after close")
	}
	cb.Close()
}

// checkUnmarshal is FuzzUnmarshal's property, shared with the seeded
// test: Unmarshal never panics; a frame it accepts re-marshals to a
// frame it accepts again and that re-marshals to the same bytes; and
// the decoded message keeps no reference into its input, so
// overwriting the input leaves its re-marshal unchanged (Conn.receive
// decodes in place in its read buffer).
func checkUnmarshal(t *testing.T, b []byte) {
	t.Helper()
	in := bytes.Clone(b)
	msg, h, err := Unmarshal(in)
	if err != nil {
		return
	}
	once, err := Marshal(msg, h.XID)
	if err != nil {
		t.Fatalf("accepted %x; re-marshal: %v", b, err)
	}
	for i := range in {
		in[i] ^= 0xff
	}
	if after, _ := Marshal(msg, h.XID); !bytes.Equal(after, once) {
		t.Fatalf("accepted %x; the message aliases its input: re-marshal %x became %x", b, once, after)
	}
	again, h2, err := Unmarshal(once)
	if err != nil {
		t.Fatalf("accepted %x; its re-marshal %x is refused: %v", b, once, err)
	}
	if h2.Type != h.Type || h2.XID != h.XID {
		t.Fatalf("accepted %x; re-marshal header %+v, want type %v xid %d", b, h2, h.Type, h.XID)
	}
	twice, err := Marshal(again, h2.XID)
	if err != nil || !bytes.Equal(twice, once) {
		t.Fatalf("accepted %x; re-marshal %x re-marshals to %x (%v)", b, once, twice, err)
	}
}

// TestFuzzUnmarshalNeverPanics runs checkUnmarshal over random frames
// with a valid header and over every corpus message with a few bytes
// flipped.
func TestFuzzUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seeds [][]byte
	for _, msg := range allMessages() {
		b, err := Marshal(msg, 42)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for i := 0; i < 20000; i++ {
		n := rng.Intn(120)
		b := make([]byte, n)
		rng.Read(b)
		if n > 1 && i%2 == 0 {
			b[0] = Version
			b[1] = byte(rng.Intn(int(typeMax)))
			if n >= 4 {
				b[2] = 0
				b[3] = byte(n)
			}
		}
		checkUnmarshal(t, b)

		m := bytes.Clone(seeds[i%len(seeds)])
		for k := 1 + rng.Intn(3); k > 0; k-- {
			m[rng.Intn(len(m))] ^= byte(1 + rng.Intn(255))
		}
		checkUnmarshal(t, m)
	}
}

// FuzzUnmarshal checks checkUnmarshal's property on arbitrary bytes,
// from a corpus of one frame per message type.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(checkUnmarshal)
}

// TestFuzzUnmarshalCorpusIsCurrent requires each seed file NN_name of
// the corpus to hold allMessages()[NN] as it encodes today with XID
// NN+1, and every entry to have one, so a wire change fails here until
// the corpus is re-encoded. Other files are inputs go test -fuzz saved
// and are left to FuzzUnmarshal.
func TestFuzzUnmarshalCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshal")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	msgs := allMessages()
	seeded := make([]bool, len(msgs))
	for _, f := range files {
		prefix, _, ok := strings.Cut(f.Name(), "_")
		i, err := strconv.Atoi(prefix)
		if !ok || len(prefix) != 2 || err != nil {
			continue
		}
		if i >= len(msgs) || seeded[i] {
			t.Fatalf("%s: allMessages() has no entry %d, or another seed file holds it", f.Name(), i)
		}
		seeded[i] = true
		want, err := Marshal(msgs[i], uint32(i+1))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		quoted, ok2 := strings.CutSuffix(quoted, ")")
		got, err := strconv.Unquote(quoted)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s is not one []byte corpus entry: %q", f.Name(), raw)
		}
		if got != string(want) {
			t.Errorf("%s is stale for %T; re-encoded it reads:\ngo test fuzz v1\n[]byte(%q)", f.Name(), msgs[i], want)
		}
	}
	for i, ok := range seeded {
		if !ok {
			t.Errorf("%s has no seed file %02d_ for %T", dir, i, msgs[i])
		}
	}
}

// TestReceiveAllocatesForBytesReceived: the largest frame a header can
// declare still decodes, and a peer that declares that much and then
// closes costs the reader what it sent, not what it claimed.
func TestReceiveAllocatesForBytesReceived(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(a)
	defer c.Close()
	largest, err := Marshal(&Experimenter{Data: make([]byte, MaxMessageLen-HeaderLen-8)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		b.Write(largest)
		b.Write(largest[:HeaderLen]) // claims MaxMessageLen bytes, sends none
		b.Close()
	}()
	if msg, _, err := c.Receive(); err != nil || len(msg.(*Experimenter).Data) != len(largest)-HeaderLen-8 {
		t.Fatalf("largest frame: %v", err)
	}
	warmRuntime()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = c.Receive()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no body was accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<10 {
		t.Errorf("receiving an 8-byte header that claims %d bytes allocated %d bytes", MaxMessageLen, n)
	}
}

// warmRuntime parks idle OS threads, so the runtime need not create
// one inside a window measured with runtime.MemStats. TotalAlloc counts
// the whole process, and the snapshot ReadMemStats takes is followed by
// its own restart of the world, which wakes an idle P. With no idle
// thread to run it, the runtime creates one, and its m, g0, gsignal
// and two profiling stacks cost 5,504 bytes of heap inside the window.
// Each of 2×GOMAXPROCS goroutines holds a thread until all are held,
// then gives it back idle: more idle threads than there are Ps.
func warmRuntime() {
	n := 2 * runtime.GOMAXPROCS(0)
	var held, exited sync.WaitGroup
	held.Add(n)
	exited.Add(n)
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			defer exited.Done()
			runtime.LockOSThread()
			held.Done()
			<-release
			runtime.UnlockOSThread()
		}()
	}
	held.Wait()
	close(release)
	exited.Wait()
}

func TestNextXIDNeverZero(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := NewConn(a)
	c.xid.Store(^uint32(0) - 1)
	for i := 0; i < 4; i++ {
		if c.NextXID() == 0 {
			t.Fatal("NextXID returned 0 across wraparound")
		}
	}
}

// TestReserveXIDs: a block is n consecutive XIDs, never holds 0 — a
// block that would wrap through it is skipped — and blocks reserved
// concurrently never share an XID.
func TestReserveXIDs(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := NewConn(a)
	c.xid.Store(^uint32(0) - 3)
	for _, tc := range []struct {
		n     int
		first uint32
	}{
		{2, ^uint32(0) - 2},
		{1, ^uint32(0)},
		{2, 2}, // 0, 1 would hold 0: skipped
		{3, 4}, // 4, 5, 6
		{1, 7},
	} {
		if first := c.ReserveXIDs(tc.n); first != tc.first {
			t.Fatalf("ReserveXIDs(%d) = %#x, want %#x", tc.n, first, tc.first)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("ReserveXIDs(0) returned; a block of no XIDs has no first")
			}
		}()
		c.ReserveXIDs(0)
	}()

	const workers, blocks = 4, 500
	c.xid.Store(^uint32(0) - 1000) // the blocks below cross the wrap
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < blocks; k++ {
				n := 1 + (w+k)%4
				first := c.ReserveXIDs(n)
				for i := 0; i < n; i++ {
					got[w] = append(got[w], first+uint32(i))
				}
			}
		}()
	}
	wg.Wait()
	seen := map[uint32]bool{}
	for _, xids := range got {
		for _, x := range xids {
			if x == 0 || seen[x] {
				t.Fatalf("XID %#x reserved twice or zero", x)
			}
			seen[x] = true
		}
	}
}
