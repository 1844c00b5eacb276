package dataplane

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flowtable"
	"repro/internal/nf"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

// missSendLen is how many bytes of a packet a table-miss packet-in
// carries.
const missSendLen = 128

// Config tunes a Switch.
type Config struct {
	DPID       uint64
	NumTables  int   // default 1
	TableSize  int   // max entries per table; 0 = unbounded
	TableSizes []int // per-table capacity override; index = table id, 0 = unbounded
	DropOnMiss bool  // true: drop instead of packet-in on table miss
	Clock      func() time.Time
}

// pipeline is the immutable fast-path view of the switch: everything a
// frame needs to traverse the datapath. Control-plane mutations build a
// fresh pipeline under s.mu and publish it atomically (RCU-style), so
// HandleFrame never takes a lock — an execution that loaded a pipeline
// keeps a consistent snapshot for its whole traversal even while flow
// mods, group mods and port changes land concurrently.
type pipeline struct {
	tables   []*flowtable.Table // shared with s.tables; internally RCU
	groups   map[uint32]*GroupDesc
	ports    map[uint32]*Port
	portList []*Port // ascending port number: deterministic flood order
	sinks    []func(zof.Message)
	stages   map[uint32]nf.Stage // NF modules reachable from nf:<id> actions
}

// Switch is a software datapath. Control operations (flow mods, group
// mods, port and controller changes, stats) are serialized by an
// internal mutex; the packet pipeline is lock-free — HandleFrame runs
// concurrently from any number of goroutines against the published
// pipeline snapshot.
type Switch struct {
	mu  sync.Mutex
	cfg Config

	// Authoritative control-plane state, guarded by mu. The tables
	// slice is fixed at construction; tables themselves are internally
	// synchronized (mutations serialized here, reads RCU).
	tables      []*flowtable.Table
	groups      map[uint32]*GroupDesc
	ports       map[uint32]*Port
	stages      map[uint32]nf.Stage
	controllers map[int]func(zof.Message)
	nextSink    int
	metrics     *obs.Scope // set by RegisterMetrics; stage gauges follow the stage map

	// roles is the switch-global controller-role coordinator shared by
	// every control connection (see roles.go).
	roles roleCoord

	// Fast-path state.
	pl         atomic.Pointer[pipeline]
	buffers    *packetBuffers
	burstSizes *obs.Histogram // frames per HandleBurst call

	// PacketIns counts packets sent to the controller (test aid).
	PacketIns atomic.Uint64
}

// NewSwitch builds a switch from cfg.
func NewSwitch(cfg Config) *Switch {
	if cfg.NumTables <= 0 {
		cfg.NumTables = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Switch{
		cfg:         cfg,
		burstSizes:  obs.NewHistogram(),
		groups:      make(map[uint32]*GroupDesc),
		ports:       make(map[uint32]*Port),
		stages:      make(map[uint32]nf.Stage),
		buffers:     newPacketBuffers(),
		controllers: make(map[int]func(zof.Message)),
	}
	for i := 0; i < cfg.NumTables; i++ {
		size := cfg.TableSize
		if i < len(cfg.TableSizes) {
			size = cfg.TableSizes[i]
		}
		s.tables = append(s.tables, flowtable.NewTable(size))
	}
	s.publishLocked()
	return s
}

// publishLocked rebuilds the fast-path snapshot from the authoritative
// state and stores it. Caller holds s.mu (or is the constructor). The
// maps are cloned so in-flight executions never observe a map write.
func (s *Switch) publishLocked() {
	pl := &pipeline{
		tables:   s.tables,
		groups:   make(map[uint32]*GroupDesc, len(s.groups)),
		ports:    make(map[uint32]*Port, len(s.ports)),
		portList: make([]*Port, 0, len(s.ports)),
		sinks:    make([]func(zof.Message), 0, len(s.controllers)),
		stages:   make(map[uint32]nf.Stage, len(s.stages)),
	}
	for id, g := range s.groups {
		pl.groups[id] = g
	}
	for id, st := range s.stages {
		pl.stages[id] = st
	}
	for no, p := range s.ports {
		pl.ports[no] = p
		pl.portList = append(pl.portList, p)
	}
	sort.Slice(pl.portList, func(i, j int) bool { return pl.portList[i].no < pl.portList[j].no })
	ids := make([]int, 0, len(s.controllers))
	for id := range s.controllers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		pl.sinks = append(pl.sinks, s.controllers[id])
	}
	s.pl.Store(pl)
}

// DPID returns the datapath id.
func (s *Switch) DPID() uint64 { return s.cfg.DPID }

// SetController wires a single async switch-to-controller channel,
// replacing all registered sinks (nil clears). Single-controller
// deployments and tests use this; HA sessions use AddControllerSink.
func (s *Switch) SetController(fn func(zof.Message)) {
	s.mu.Lock()
	clear(s.controllers)
	if fn != nil {
		s.controllers[s.nextSink] = fn
		s.nextSink++
	}
	s.publishLocked()
	s.mu.Unlock()
}

// AddControllerSink registers an additional controller channel and
// returns its id for RemoveControllerSink.
func (s *Switch) AddControllerSink(fn func(zof.Message)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextSink
	s.nextSink++
	s.controllers[id] = fn
	s.publishLocked()
	return id
}

// RemoveControllerSink unregisters a controller channel.
func (s *Switch) RemoveControllerSink(id int) {
	s.mu.Lock()
	delete(s.controllers, id)
	s.publishLocked()
	s.mu.Unlock()
}

// notifyLocked fans an async message out to every registered sink.
// Caller holds s.mu (or is otherwise serialized).
func (s *Switch) notifyLocked(msg zof.Message) {
	for _, fn := range s.controllers {
		fn(msg)
	}
}

// AddPort creates port no. It returns the port for wiring. Ports added
// after the control session is up are announced with a PortStatus, so
// the controller's picture tracks late host attachment.
func (s *Switch) AddPort(no uint32, name string, speedMbps uint32) *Port {
	p := NewPort(zof.PortInfo{
		No:        no,
		HWAddr:    packet.MACFromUint64(s.cfg.DPID<<16 | uint64(no)),
		Name:      name,
		SpeedMbps: speedMbps,
	}, nil)
	s.mu.Lock()
	s.ports[no] = p
	s.publishLocked()
	s.notifyLocked(&zof.PortStatus{Reason: zof.PortAdded, Port: p.Info()})
	s.mu.Unlock()
	return p
}

// Port returns port no. Lock-free: reads the published snapshot.
func (s *Switch) Port(no uint32) (*Port, bool) {
	p := s.pl.Load().ports[no]
	return p, p != nil
}

// Ports returns all ports in number order.
func (s *Switch) Ports() []*Port {
	return append([]*Port(nil), s.pl.Load().portList...)
}

// SetPortDown fails or restores a port, emitting PortStatus. Port
// link state is atomic, so no pipeline republish is needed — in-flight
// executions see the flip immediately.
func (s *Switch) SetPortDown(no uint32, down bool) {
	p, ok := s.Port(no)
	if !ok || !p.SetDown(down) {
		return
	}
	s.mu.Lock()
	s.notifyLocked(&zof.PortStatus{Reason: zof.PortModified, Port: p.Info()})
	s.mu.Unlock()
}

// FeaturesReply describes the switch for the handshake.
func (s *Switch) FeaturesReply() *zof.FeaturesReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.featuresLocked()
}

func (s *Switch) featuresLocked() *zof.FeaturesReply {
	fr := &zof.FeaturesReply{
		DPID:         s.cfg.DPID,
		NumTables:    uint8(len(s.tables)),
		Capabilities: zof.CapFlowStats | zof.CapPortStats | zof.CapTableStats | zof.CapGroups,
	}
	nos := make([]uint32, 0, len(s.ports))
	for no := range s.ports {
		nos = append(nos, no)
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	for _, no := range nos {
		fr.Ports = append(fr.Ports, s.ports[no].Info())
	}
	return fr
}

// AddGroup installs or replaces a group.
func (s *Switch) AddGroup(g GroupDesc) {
	s.mu.Lock()
	cp := g
	cp.Buckets = append([]Bucket(nil), g.Buckets...)
	s.groups[g.ID] = &cp
	s.publishLocked()
	s.mu.Unlock()
}

// DeleteGroup removes a group.
func (s *Switch) DeleteGroup(id uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.groups[id]; !ok {
		return false
	}
	delete(s.groups, id)
	s.publishLocked()
	return true
}

// RegisterStage installs an NF module under id, making nf:<id> actions
// legal in flow mods. Stage ids are switch-local names like group ids;
// registering over a live id is refused so an operator cannot silently
// swap the state machine behind flowing traffic.
func (s *Switch) RegisterStage(id uint32, st nf.Stage) error {
	if st == nil {
		return fmt.Errorf("nil stage")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.stages[id]; exists {
		return fmt.Errorf("nf stage %d already registered", id)
	}
	s.stages[id] = st
	s.publishLocked()
	s.publishStageGaugeLocked(st)
	return nil
}

// UnregisterStage removes the NF module under id. Flows steering into
// the id are left installed and become pass-throughs (fail-open): the
// rules are controller-owned intent, and cascading deletes here would
// fight the auditor, which would dutifully re-add them as drift.
func (s *Switch) UnregisterStage(id uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stages[id]
	if !ok {
		return false
	}
	delete(s.stages, id)
	s.publishLocked()
	if s.metrics != nil {
		s.metrics.Scope("nf." + st.Name()).Unregister("entries")
	}
	return true
}

// Stage returns the NF module registered under id. Lock-free: reads
// the published snapshot.
func (s *Switch) Stage(id uint32) (nf.Stage, bool) {
	st := s.pl.Load().stages[id]
	return st, st != nil
}

// StageSummaries reports every registered NF module with its dynamic
// state, in id order — the introspection view behind GET /v1/nf.
func (s *Switch) StageSummaries() []nf.StageStatus {
	pl := s.pl.Load()
	out := make([]nf.StageStatus, 0, len(pl.stages))
	for id, st := range pl.stages {
		out = append(out, nf.StageStatus{ID: id, Module: st.Name(), Summary: st.StateSummary()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ConntrackEntries dumps the live connection entries of every
// registered conntrack-style module, sorted by tuple.
func (s *Switch) ConntrackEntries() []nf.ConnInfo {
	pl := s.pl.Load()
	now := s.cfg.Clock()
	var out []nf.ConnInfo
	for _, st := range pl.stages {
		if d, ok := st.(nf.ConnDumper); ok {
			out = append(out, d.Conns(now)...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple < out[j].Tuple })
	return out
}

// RegisterMetrics publishes the switch's counters into r under prefix
// (e.g. "dataplane.3"), as callback gauges reading the live atomics:
// packet-in totals, parked packets the buffer ring overwrote before a
// verdict, microflow-cache effectiveness summed over the ports, and
// per-table lookup/match/occupancy figures plus the number of mask
// shapes installed (what a lookup in that table costs), named
// <prefix>.flowtable.<table>.<stat>, and one <prefix>.nf.<name>.entries
// gauge per NF stage — the stages registered now and, because the
// switch keeps the scope, every stage registered (or unregistered)
// afterwards.
func (s *Switch) RegisterMetrics(r *obs.Registry, prefix string) {
	sc := r.Scope(prefix)
	sc.RegisterFunc("packet_ins", func() int64 { return int64(s.PacketIns.Load()) })
	sc.RegisterFunc("buffers.evicted", func() int64 { return int64(s.buffers.evicted.Load()) })
	sc.RegisterFunc("flows", func() int64 { return int64(s.FlowCount()) })
	sc.RegisterFunc("microcache.hits", s.cacheSum((*flowtable.MicroCache).Hits))
	sc.RegisterFunc("microcache.misses", s.cacheSum((*flowtable.MicroCache).Misses))
	sc.RegisterFunc("microcache.flows", s.cacheSum(func(c *flowtable.MicroCache) uint64 { return uint64(c.Len()) }))
	sc.RegisterHistogram("burst.sizes", s.burstSizes)
	for i, t := range s.pl.Load().tables {
		t := t
		ts := sc.Scope(fmt.Sprintf("flowtable.%d", i))
		ts.RegisterFunc("lookups", func() int64 { return int64(t.Lookups()) })
		ts.RegisterFunc("matches", func() int64 { return int64(t.Matches()) })
		ts.RegisterFunc("active", func() int64 { return int64(t.Len()) })
		ts.RegisterFunc("tuples", func() int64 { return int64(t.Shapes()) })
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = &sc
	for _, st := range s.stages {
		s.publishStageGaugeLocked(st)
	}
}

// cacheSum returns a gauge summing stat over the ports' microflow
// caches.
func (s *Switch) cacheSum(stat func(*flowtable.MicroCache) uint64) func() int64 {
	return func() (n int64) {
		for _, p := range s.pl.Load().portList {
			n += int64(stat(p.cache))
		}
		return n
	}
}

// publishStageGaugeLocked registers st's live-state gauge if a metrics
// registry is attached. Caller holds s.mu.
func (s *Switch) publishStageGaugeLocked(st nf.Stage) {
	if s.metrics != nil {
		s.metrics.Scope("nf."+st.Name()).RegisterFunc("entries",
			func() int64 { return int64(st.StateSummary().Entries) })
	}
}

// FlowCount returns the number of entries across tables (test aid).
func (s *Switch) FlowCount() int {
	n := 0
	for _, t := range s.pl.Load().tables {
		n += t.Len()
	}
	return n
}

// HandleFrame runs a frame arriving on inPort through the pipeline.
// The data slice is borrowed for the duration of the call and never
// mutated or retained — callers may reuse it immediately after return.
//
// This is the lock-free fast path: any number of goroutines may call
// HandleFrame concurrently. Each call loads the current pipeline
// snapshot, takes a pooled burst and an exec from it, and traverses
// tables, groups and ports without acquiring the switch mutex. Control-plane
// mutations racing with a traversal are seen either entirely or not at
// all (per-structure RCU views).
//
// HandleFrame is a thin wrapper over a 1-frame burst: the burst engine
// is the single datapath, so fault-injection paths and per-frame
// callers exercise exactly the code HandleBurst does. Single-frame
// calls skip the burst-size histogram to keep per-frame atomics off
// this path.
func (s *Switch) HandleFrame(inPort uint32, data []byte) {
	pl := s.pl.Load()
	p := pl.ports[inPort]
	if p == nil {
		return
	}
	b := getBurst(1)
	one := [1][]byte{data}
	s.runBurst(pl, p, inPort, one[:], b)
	putBurst(b)
}

// Tick sweeps expired flows at now, emitting FlowRemoved where asked,
// and drives the time-based state of registered NF stages (conntrack
// idle expiry).
func (s *Switch) Tick(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.stages {
		if tk, ok := st.(nf.Ticker); ok {
			tk.Tick(now)
		}
	}
	for i, t := range s.tables {
		for _, rm := range t.Sweep(now) {
			if rm.Entry.Flags&zof.FlagSendFlowRemoved == 0 || len(s.controllers) == 0 {
				continue
			}
			s.notifyLocked(&zof.FlowRemoved{
				Match:         rm.Entry.Match,
				Cookie:        rm.Entry.Cookie,
				Priority:      rm.Entry.Priority,
				Reason:        rm.Reason,
				TableID:       uint8(i),
				DurationNanos: uint64(now.Sub(rm.Entry.Created)),
				PacketCount:   rm.Entry.Packets(),
				ByteCount:     rm.Entry.Bytes(),
			})
		}
	}
}

// Process handles one controller-to-switch message, invoking reply for
// each response (with the request's xid).
func (s *Switch) Process(msg zof.Message, xid uint32, reply func(zof.Message, uint32)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := msg.(type) {
	case *zof.EchoRequest:
		reply(&zof.EchoReply{Data: m.Data}, xid)
	case *zof.FeaturesRequest:
		reply(s.featuresLocked(), xid)
	case *zof.BarrierRequest:
		// The handler goroutine processes messages in order, so by the
		// time we see the barrier everything before it is done.
		reply(&zof.BarrierReply{}, xid)
	case *zof.FlowMod:
		if err := s.flowModLocked(m); err != nil {
			reply(&zof.Error{Code: errCode(err), Detail: err.Error()}, xid)
		}
	case *zof.PacketOut:
		s.packetOutLocked(m)
	case *zof.GroupMod:
		if err := s.groupModLocked(m); err != nil {
			reply(&zof.Error{Code: zof.ErrCodeBadGroup, Detail: err.Error()}, xid)
		}
	case *zof.StatsRequest:
		reply(s.statsLocked(m), xid)
	default:
		reply(&zof.Error{Code: zof.ErrCodeBadRequest,
			Detail: fmt.Sprintf("unexpected %v", msg.Type())}, xid)
	}
}

// codeError carries an explicit zof error code alongside the message,
// for failures whose code cannot be derived from a sentinel error.
type codeError struct {
	code uint16
	msg  string
}

func (e *codeError) Error() string { return e.msg }

func errCode(err error) uint16 {
	var ce *codeError
	if errors.As(err, &ce) {
		return ce.code
	}
	switch err {
	case flowtable.ErrOverlap:
		return zof.ErrCodeOverlap
	case flowtable.ErrTableFull:
		return zof.ErrCodeTableFull
	}
	return zof.ErrCodeBadRequest
}

// validateActionsLocked rejects action lists referencing state the
// switch does not have — group actions naming an uninstalled group, nf
// actions naming an unregistered stage. Real silicon refuses such
// mods; accepting them here would let the controller believe in rules
// that can never forward (or never firewall).
func (s *Switch) validateActionsLocked(acts []zof.Action) error {
	for _, a := range acts {
		switch a.Type {
		case zof.ActGroup:
			if _, ok := s.groups[a.Port]; !ok {
				return &codeError{zof.ErrCodeBadGroup, fmt.Sprintf("no group %d", a.Port)}
			}
		case zof.ActNF:
			if _, ok := s.stages[a.Port]; !ok {
				return &codeError{zof.ErrCodeBadAction, fmt.Sprintf("no nf stage %d", a.Port)}
			}
		}
	}
	return nil
}

// inject runs an action list for a control-plane-originated packet
// (packet-out, buffered release). Caller holds s.mu; the execution uses
// the current snapshot like any datapath frame would.
func (s *Switch) inject(inPort uint32, data []byte, acts []zof.Action) {
	b := getBurst(0)
	x := b.take(s, s.pl.Load(), s.cfg.Clock())
	if packet.Decode(data, &x.frame) == nil {
		x.apply(inPort, data, acts, 0)
	}
	putBurst(b)
}

func (s *Switch) flowModLocked(m *zof.FlowMod) error {
	if int(m.TableID) >= len(s.tables) {
		return fmt.Errorf("no table %d", m.TableID)
	}
	t := s.tables[m.TableID]
	now := s.cfg.Clock()
	switch m.Command {
	case zof.FlowAdd:
		if err := s.validateActionsLocked(m.Actions); err != nil {
			return err
		}
		e := &flowtable.Entry{
			Match:       m.Match,
			Priority:    m.Priority,
			Cookie:      m.Cookie,
			Actions:     append([]zof.Action(nil), m.Actions...),
			Flags:       m.Flags,
			IdleTimeout: time.Duration(m.IdleTimeout) * time.Second,
			HardTimeout: time.Duration(m.HardTimeout) * time.Second,
		}
		if err := t.Add(e, m.Flags&zof.FlagCheckOverlap != 0, now); err != nil {
			return err
		}
	case zof.FlowModify:
		if err := s.validateActionsLocked(m.Actions); err != nil {
			return err
		}
		t.Modify(m.Match, append([]zof.Action(nil), m.Actions...), m.Cookie)
	case zof.FlowDelete:
		if m.Flags&zof.FlagCookieFilter != 0 {
			s.emitRemoved(m.TableID, t.DeleteByCookie(m.Match, m.Cookie), now)
		} else {
			s.emitRemoved(m.TableID, t.Delete(m.Match), now)
		}
	case zof.FlowDeleteStrict:
		if m.Flags&zof.FlagCookieFilter != 0 {
			s.emitRemoved(m.TableID, t.DeleteStrictByCookie(m.Match, m.Priority, m.Cookie), now)
		} else {
			s.emitRemoved(m.TableID, t.DeleteStrict(m.Match, m.Priority), now)
		}
	default:
		return fmt.Errorf("bad flow_mod command %d", m.Command)
	}
	// A buffered packet attached to the mod is released through the new
	// state of the pipeline.
	if m.BufferID != zof.NoBuffer && m.Command == zof.FlowAdd {
		if inPort, data, ok := s.buffers.take(m.BufferID); ok {
			s.inject(inPort, data, m.Actions)
		}
	}
	return nil
}

func (s *Switch) emitRemoved(tableID uint8, removed []*flowtable.Entry, now time.Time) {
	if len(s.controllers) == 0 {
		return
	}
	for _, e := range removed {
		if e.Flags&zof.FlagSendFlowRemoved == 0 {
			continue
		}
		s.notifyLocked(&zof.FlowRemoved{
			Match:         e.Match,
			Cookie:        e.Cookie,
			Priority:      e.Priority,
			Reason:        zof.RemovedDelete,
			TableID:       tableID,
			DurationNanos: uint64(now.Sub(e.Created)),
			PacketCount:   e.Packets(),
			ByteCount:     e.Bytes(),
		})
	}
}

// groupModLocked applies a wire group-mod to the group table.
func (s *Switch) groupModLocked(m *zof.GroupMod) error {
	switch m.Command {
	case zof.GroupAdd, zof.GroupModify:
		g := GroupDesc{ID: m.GroupID, Type: GroupType(m.GroupType)}
		for _, bk := range m.Buckets {
			g.Buckets = append(g.Buckets, Bucket{
				Weight:    bk.Weight,
				WatchPort: bk.WatchPort,
				Actions:   append([]zof.Action(nil), bk.Actions...),
			})
		}
		if m.Command == zof.GroupAdd {
			if _, exists := s.groups[m.GroupID]; exists {
				return fmt.Errorf("group %d exists", m.GroupID)
			}
		}
		s.groups[m.GroupID] = &g
		s.publishLocked()
	case zof.GroupDelete:
		if _, ok := s.groups[m.GroupID]; !ok {
			return fmt.Errorf("no group %d", m.GroupID)
		}
		delete(s.groups, m.GroupID)
		// Cascade: flows pointing at the deleted group are removed with
		// it (OpenFlow group-delete semantics) so the pipeline never
		// executes a dangling group reference.
		now := s.cfg.Clock()
		for ti, t := range s.tables {
			removed := t.DeleteFunc(func(e *flowtable.Entry) bool {
				for _, a := range e.Actions {
					if a.Type == zof.ActGroup && a.Port == m.GroupID {
						return true
					}
				}
				return false
			})
			s.emitRemoved(uint8(ti), removed, now)
		}
		s.publishLocked()
	default:
		return fmt.Errorf("bad group_mod command %d", m.Command)
	}
	return nil
}

func (s *Switch) packetOutLocked(m *zof.PacketOut) {
	var data []byte
	inPort := m.InPort
	if m.BufferID != zof.NoBuffer {
		bp, bd, ok := s.buffers.take(m.BufferID)
		if !ok {
			return
		}
		if inPort == 0 {
			inPort = bp
		}
		data = bd
	} else {
		data = m.Data
	}
	s.inject(inPort, data, m.Actions)
}

func (s *Switch) statsLocked(m *zof.StatsRequest) *zof.StatsReply {
	rep := &zof.StatsReply{Kind: m.Kind}
	now := s.cfg.Clock()
	switch m.Kind {
	case zof.StatsFlow, zof.StatsAggregate:
		for ti, t := range s.tables {
			if m.TableID != 0xff && int(m.TableID) != ti {
				continue
			}
			for _, e := range t.Entries() {
				if !m.Match.Subsumes(&e.Match) {
					continue
				}
				if m.Kind == zof.StatsAggregate {
					rep.Aggregate.PacketCount += e.Packets()
					rep.Aggregate.ByteCount += e.Bytes()
					rep.Aggregate.FlowCount++
					continue
				}
				rep.Flows = append(rep.Flows, zof.FlowStats{
					TableID:       uint8(ti),
					Priority:      e.Priority,
					Match:         e.Match,
					Cookie:        e.Cookie,
					DurationNanos: uint64(now.Sub(e.Created)),
					IdleTimeout:   uint16(e.IdleTimeout / time.Second),
					HardTimeout:   uint16(e.HardTimeout / time.Second),
					PacketCount:   e.Packets(),
					ByteCount:     e.Bytes(),
					// Copied: the reply is marshalled and read outside the
					// lock, and the live entry's actions must not alias it.
					Actions: append([]zof.Action(nil), e.Actions...),
				})
			}
		}
	case zof.StatsPort:
		for no, p := range s.ports {
			if m.PortNo != zof.PortNone && m.PortNo != no {
				continue
			}
			rep.Ports = append(rep.Ports, p.Stats())
		}
		sort.Slice(rep.Ports, func(i, j int) bool { return rep.Ports[i].PortNo < rep.Ports[j].PortNo })
	case zof.StatsTable:
		for ti, t := range s.tables {
			rep.Tables = append(rep.Tables, t.Stats(uint8(ti)))
		}
	}
	return rep
}
