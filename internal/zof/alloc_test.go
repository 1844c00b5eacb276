//go:build !race

package zof

import (
	"net"
	"testing"
)

// frameLoop is a net.Conn whose reads replay one frame forever.
type frameLoop struct {
	net.Conn
	frame []byte
	off   int
}

func (f *frameLoop) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = f.frame[f.off]
		f.off = (f.off + 1) % len(f.frame)
	}
	return len(p), nil
}

// TestReceiveBarrierReplyZeroAlloc pins the reader: a frame's header is
// taken from the read buffer, not copied out of it, so receiving a
// message with an empty body allocates nothing.
func TestReceiveBarrierReplyZeroAlloc(t *testing.T) {
	frame, err := Marshal(&BarrierReply{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(&frameLoop{frame: frame})
	if n := testing.AllocsPerRun(1000, func() {
		if msg, h, err := c.Receive(); err != nil || h.XID != 7 || msg.Type() != TypeBarrierReply {
			t.Fatalf("Receive = %v, %+v, %v", msg, h, err)
		}
	}); n != 0 {
		t.Errorf("Receive(BarrierReply): %v allocs per message, want 0", n)
	}
}
