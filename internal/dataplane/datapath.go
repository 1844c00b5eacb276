package dataplane

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/zof"
)

// Datapath runs one control-channel session of a Switch over a
// transport handed to Attach: it performs the Hello handshake from the
// switch side, pumps controller-to-switch messages into Switch.Process,
// and forwards the switch's asynchronous messages up the channel. A Switch
// may run several Datapaths at once (one per controller instance); the
// switch-global role coordinator (Switch.claimRole) arbitrates which
// of them is master.
type Datapath struct {
	sw     *Switch
	conn   *zof.Conn
	sinkID int

	// role is this connection's controller role. It is written by the
	// switch-global role coordinator (under its lock) — a master claim
	// on one connection demotes every other connection to slave — and
	// read lock-free on the async and mutation paths.
	role atomic.Uint32

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// Attach runs the session over an established transport — a TCP
// connection, or one end of an in-process stream — and returns once
// the handshake is done and the switch is operational.
func Attach(sw *Switch, raw net.Conn) (*Datapath, error) {
	conn := zof.NewConn(raw)
	if err := conn.Handshake(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("zof handshake: %w", err)
	}
	dp := &Datapath{
		sw:   sw,
		conn: conn,
		done: make(chan struct{}),
	}
	dp.role.Store(zof.RoleEqual)
	dp.sinkID = sw.AddControllerSink(dp.sendAsync)
	go dp.readLoop()
	return dp, nil
}

// Close tears the session down.
func (d *Datapath) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.sw.RemoveControllerSink(d.sinkID)
	d.sw.dropRole(d)
	return d.conn.Close()
}

// Done is closed when the session ends for any reason.
func (d *Datapath) Done() <-chan struct{} { return d.done }

// Role returns this connection's current controller role. A connection
// that believed itself master may observe RoleSlave here after another
// connection claimed mastership with a newer generation — the fencing
// that protects the flow table from a deposed controller.
func (d *Datapath) Role() uint32 { return d.role.Load() }

// sendAsync carries switch-originated messages; slave connections are
// filtered — when a standby controller's connection is demoted, its
// packet-in stream stops at the source.
func (d *Datapath) sendAsync(msg zof.Message) {
	if d.role.Load() == zof.RoleSlave {
		return // slaves get no async messages
	}
	_, _ = d.conn.Send(msg)
}

func (d *Datapath) readLoop() {
	defer close(d.done)
	defer d.Close()
	for {
		msg, h, err := d.conn.Receive()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *zof.RoleRequest:
			rep, rerr := d.sw.claimRole(d, m.Role, m.GenerationID)
			if rerr != nil {
				_ = d.conn.SendXID(&zof.Error{Code: zof.ErrCodeBadRequest,
					Detail: rerr.Error()}, h.XID)
				continue
			}
			_ = d.conn.SendXID(rep, h.XID)
		case *zof.Hello:
			// Late hellos are tolerated.
		default:
			if d.role.Load() == zof.RoleSlave && isMutation(msg) {
				_ = d.conn.SendXID(&zof.Error{Code: zof.ErrCodeIsSlave,
					Detail: "connection is slave"}, h.XID)
				continue
			}
			d.sw.Process(msg, h.XID, d.reply)
		}
	}
}

// reply answers a request. A reply too big for one frame — a flow-stats
// reply past about 648 single-action flows — fails its request with an
// Error instead of the session.
func (d *Datapath) reply(rep zof.Message, xid uint32) {
	if err := d.conn.SendXID(rep, xid); errors.Is(err, zof.ErrMessageTooBig) {
		_ = d.conn.SendXID(&zof.Error{Code: zof.ErrCodeBadRequest,
			Detail: fmt.Sprintf("%v reply: %v", rep.Type(), err)}, xid)
	}
}

// isMutation reports whether msg changes switch state (what slaves may
// not do).
func isMutation(msg zof.Message) bool {
	switch msg.(type) {
	case *zof.FlowMod, *zof.PacketOut, *zof.GroupMod:
		return true
	}
	return false
}
