package dataplane

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/zof"
)

// fakeController is a bare zof endpoint acting as the controller side.
type fakeController struct {
	conn *zof.Conn
	raw  net.Conn
}

func startSession(t *testing.T) (*Switch, *Datapath, *fakeController) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	sw := NewSwitch(Config{DPID: 7})
	sw.AddPort(1, "p1", 1000)
	sw.AddPort(2, "p2", 1000)

	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	// Attach blocks on the Hello exchange, which needs the controller
	// side; run it concurrently with the controller handshake.
	type connected struct {
		dp  *Datapath
		err error
	}
	dpCh := make(chan connected, 1)
	go func() {
		raw, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			dpCh <- connected{nil, err}
			return
		}
		dp, err := Attach(sw, raw)
		dpCh <- connected{dp, err}
	}()
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	ctrl := &fakeController{conn: zof.NewConn(a.conn), raw: a.conn}
	if herr := ctrl.conn.Handshake(); herr != nil {
		t.Fatalf("controller handshake: %v", herr)
	}
	res := <-dpCh
	if res.err != nil {
		t.Fatalf("Attach: %v", res.err)
	}
	dp := res.dp
	t.Cleanup(func() { dp.Close(); ctrl.conn.Close() })
	return sw, dp, ctrl
}

// rpc sends req and waits for the reply with the same xid, passing
// through (and returning) any async messages seen meanwhile.
func (c *fakeController) rpc(t *testing.T, req zof.Message) (zof.Message, []zof.Message) {
	t.Helper()
	xid, err := c.conn.Send(req)
	if err != nil {
		t.Fatal(err)
	}
	var async []zof.Message
	for {
		msg, h, err := c.conn.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if h.XID == xid {
			return msg, async
		}
		async = append(async, msg)
	}
}

// rawRPC is rpc below zof.Conn, which keeps echo replies to itself: it
// frames req onto the transport and reads frames until the reply.
func (c *fakeController) rawRPC(t *testing.T, req zof.Message) zof.Message {
	t.Helper()
	b, err := zof.Marshal(req, 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.raw.Write(b); err != nil {
		t.Fatal(err)
	}
	for {
		frame := make([]byte, zof.HeaderLen)
		if _, err := io.ReadFull(c.raw, frame); err != nil {
			t.Fatal(err)
		}
		h, err := zof.DecodeHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		frame = append(frame, make([]byte, int(h.Length)-zof.HeaderLen)...)
		if _, err := io.ReadFull(c.raw, frame[zof.HeaderLen:]); err != nil {
			t.Fatal(err)
		}
		if h.XID == 99 {
			msg, _, err := zof.Unmarshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			return msg
		}
	}
}

func TestSessionHandshakeAndFeatures(t *testing.T) {
	_, _, ctrl := startSession(t)
	rep, _ := ctrl.rpc(t, &zof.FeaturesRequest{})
	fr, ok := rep.(*zof.FeaturesReply)
	if !ok {
		t.Fatalf("reply = %T", rep)
	}
	if fr.DPID != 7 || len(fr.Ports) != 2 || fr.NumTables != 1 {
		t.Fatalf("features = %+v", fr)
	}
}

func TestSessionFlowModAndBarrier(t *testing.T) {
	sw, _, ctrl := startSession(t)
	_, err := ctrl.conn.Send(&zof.FlowMod{
		Command: zof.FlowAdd, Match: zof.MatchAll(), Priority: 4,
		BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := ctrl.rpc(t, &zof.BarrierRequest{})
	if _, ok := rep.(*zof.BarrierReply); !ok {
		t.Fatalf("reply = %T", rep)
	}
	// After the barrier the flow is guaranteed installed.
	if sw.FlowCount() != 1 {
		t.Fatalf("flows = %d", sw.FlowCount())
	}
}

func TestSessionPacketInFlowsUp(t *testing.T) {
	sw, _, ctrl := startSession(t)
	frame := udpFrame(t, hostA, hostB, 9, 10, "up")
	go sw.HandleFrame(1, frame)
	msg, h, err := ctrl.conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	pi, ok := msg.(*zof.PacketIn)
	if !ok {
		t.Fatalf("got %T", msg)
	}
	if pi.InPort != 1 || int(pi.TotalLen) != len(frame) {
		t.Fatalf("packet-in = %+v", pi)
	}
	_ = h
}

func TestSessionEcho(t *testing.T) {
	_, _, ctrl := startSession(t)
	rep := ctrl.rawRPC(t, &zof.EchoRequest{Data: []byte("zen")})
	er, ok := rep.(*zof.EchoReply)
	if !ok || string(er.Data) != "zen" {
		t.Fatalf("echo reply = %#v", rep)
	}
}

func TestSessionSlaveRejected(t *testing.T) {
	sw, _, ctrl := startSession(t)
	rep, _ := ctrl.rpc(t, &zof.RoleRequest{Role: zof.RoleSlave, GenerationID: 1})
	rr, ok := rep.(*zof.RoleReply)
	if !ok || rr.Role != zof.RoleSlave {
		t.Fatalf("role reply = %#v", rep)
	}
	// Mutations now bounce with is-slave.
	_, err := ctrl.conn.Send(&zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(),
		BufferID: zof.NoBuffer})
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := ctrl.conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := msg.(*zof.Error)
	if !ok || e.Code != zof.ErrCodeIsSlave {
		t.Fatalf("got %#v", msg)
	}
	if sw.FlowCount() != 0 {
		t.Error("slave installed a flow")
	}
	// Reads still work.
	rep, _ = ctrl.rpc(t, &zof.FeaturesRequest{})
	if _, ok := rep.(*zof.FeaturesReply); !ok {
		t.Fatalf("slave read failed: %T", rep)
	}
	// Promote back to master with a newer generation.
	rep, _ = ctrl.rpc(t, &zof.RoleRequest{Role: zof.RoleMaster, GenerationID: 2})
	if rr := rep.(*zof.RoleReply); rr.Role != zof.RoleMaster {
		t.Fatalf("promotion failed: %+v", rr)
	}
	// Stale generation refused.
	rep, _ = ctrl.rpc(t, &zof.RoleRequest{Role: zof.RoleSlave, GenerationID: 1})
	if _, ok := rep.(*zof.Error); !ok {
		t.Fatalf("stale generation accepted: %#v", rep)
	}
}

func TestSessionCloseSignalsDone(t *testing.T) {
	_, dp, ctrl := startSession(t)
	ctrl.conn.Close()
	select {
	case <-dp.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done not closed after controller hangup")
	}
}
