package controller

import (
	"slices"
	"sync"

	"repro/internal/zof"
)

// FlowKey identifies one intended flow: the identity triple OpenFlow
// uses for add-or-replace and strict deletes. zof.Match is a flat
// comparable struct, so the key works directly as a map key.
type FlowKey struct {
	TableID  uint8
	Match    zof.Match
	Priority uint16
}

// IntendedFlow is the controller's durable record of one rule it asked
// a switch to install: the epoch-stamped cookie exactly as sent on the
// wire, plus everything needed to re-issue the FlowAdd verbatim.
// Values are treated as immutable once stored — the Actions slice is
// shared between the store, its snapshots, and repair mods.
type IntendedFlow struct {
	Cookie      uint64
	Actions     []zof.Action
	Flags       uint16
	IdleTimeout uint16 // seconds, wire units
	HardTimeout uint16
}

// IntendedGroup records one installed group.
type IntendedGroup struct {
	GroupType uint8
	Buckets   []zof.GroupBucket
}

// flowMod rebuilds the FlowAdd that would reinstall f at key k.
func (f IntendedFlow) flowMod(k FlowKey) *zof.FlowMod {
	return &zof.FlowMod{
		Command:     zof.FlowAdd,
		TableID:     k.TableID,
		Match:       k.Match,
		Priority:    k.Priority,
		Cookie:      f.Cookie,
		Actions:     f.Actions,
		Flags:       f.Flags,
		IdleTimeout: f.IdleTimeout,
		HardTimeout: f.HardTimeout,
		BufferID:    zof.NoBuffer,
	}
}

// groupMod rebuilds the GroupMod that would reinstall g as id.
func (g IntendedGroup) groupMod(cmd uint8, id uint32) *zof.GroupMod {
	return &zof.GroupMod{Command: cmd, GroupType: g.GroupType, GroupID: id, Buckets: g.Buckets}
}

// storeState is the intended configuration of one switch. Mutations
// replace map values wholesale (never edit an IntendedFlow in place),
// so a cloned state shares values safely.
type storeState struct {
	flows  map[FlowKey]IntendedFlow
	groups map[uint32]IntendedGroup
}

func newStoreState() storeState {
	return storeState{
		flows:  make(map[FlowKey]IntendedFlow),
		groups: make(map[uint32]IntendedGroup),
	}
}

func (st *storeState) clone() storeState {
	c := storeState{
		flows:  make(map[FlowKey]IntendedFlow, len(st.flows)),
		groups: make(map[uint32]IntendedGroup, len(st.groups)),
	}
	for k, v := range st.flows {
		c.flows[k] = v
	}
	for k, v := range st.groups {
		c.groups[k] = v
	}
	return c
}

// applyFlowMod mirrors the datapath's flow-mod semantics onto the
// intended state, including the cookie-filter delete variants — so the
// reconciler's stale-epoch flushes and the apps' deletes keep store and
// switch in lockstep. Capacity and overlap are not modelled: the store
// records intent, and a switch rejection surfaces through the
// transactional or async-error paths instead.
func (st *storeState) applyFlowMod(m *zof.FlowMod) {
	switch m.Command {
	case zof.FlowAdd:
		st.flows[FlowKey{m.TableID, m.Match, m.Priority}] = IntendedFlow{
			Cookie:      m.Cookie,
			Actions:     m.Actions,
			Flags:       m.Flags,
			IdleTimeout: m.IdleTimeout,
			HardTimeout: m.HardTimeout,
		}
	case zof.FlowModify:
		for k, f := range st.flows {
			if k.TableID == m.TableID && m.Match.Subsumes(&k.Match) {
				f.Actions = m.Actions
				f.Cookie = m.Cookie
				st.flows[k] = f
			}
		}
	case zof.FlowDelete:
		for k, f := range st.flows {
			if k.TableID != m.TableID || !m.Match.Subsumes(&k.Match) {
				continue
			}
			if m.Flags&zof.FlagCookieFilter != 0 && f.Cookie != m.Cookie {
				continue
			}
			delete(st.flows, k)
		}
	case zof.FlowDeleteStrict:
		k := FlowKey{m.TableID, m.Match, m.Priority}
		if f, ok := st.flows[k]; ok {
			if m.Flags&zof.FlagCookieFilter == 0 || f.Cookie == m.Cookie {
				delete(st.flows, k)
			}
		}
	}
}

// applyGroupMod mirrors the datapath's group-mod semantics, including
// the group-delete cascade onto flows referencing the group.
func (st *storeState) applyGroupMod(m *zof.GroupMod) {
	switch m.Command {
	case zof.GroupAdd:
		if _, exists := st.groups[m.GroupID]; exists {
			return // the switch rejects this; keep the existing intent
		}
		st.groups[m.GroupID] = IntendedGroup{GroupType: m.GroupType, Buckets: m.Buckets}
	case zof.GroupModify:
		st.groups[m.GroupID] = IntendedGroup{GroupType: m.GroupType, Buckets: m.Buckets}
	case zof.GroupDelete:
		if _, ok := st.groups[m.GroupID]; !ok {
			return
		}
		delete(st.groups, m.GroupID)
		for k, f := range st.flows {
			if flowReferencesGroup(f.Actions, m.GroupID) {
				delete(st.flows, k)
			}
		}
	}
}

func flowReferencesGroup(acts []zof.Action, gid uint32) bool {
	for _, a := range acts {
		if a.Type == zof.ActGroup && a.Port == gid {
			return true
		}
	}
	return false
}

// FlowStore is the intended-state record for one datapath: every flow
// and group the controller has asked it to install, kept current by
// recording each mod before it is sent (record-happens-before-send is
// the invariant the anti-entropy auditor relies on: a flow present in a
// FlowStats reply but absent from the store cannot be a mod still in
// flight — it is drift). The store outlives individual control
// sessions, so after a switch crash it still names the configuration
// the fleet should converge back to.
type FlowStore struct {
	mu sync.Mutex
	st storeState
}

// NewFlowStore returns an empty store.
func NewFlowStore() *FlowStore {
	return &FlowStore{st: newStoreState()}
}

// Record applies sent messages to the intended state. Non-mod messages
// are ignored, so callers can pass a whole outgoing batch.
func (fs *FlowStore) Record(msgs ...zof.Message) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, m := range msgs {
		switch mod := m.(type) {
		case *zof.FlowMod:
			fs.st.applyFlowMod(mod)
		case *zof.GroupMod:
			fs.st.applyGroupMod(mod)
		}
	}
}

// RemoveIfCookie drops the intended entry at k if its cookie matches
// exactly — the FlowRemoved handler's primitive: an expiry notice for
// an old rule must not erase the intent of a newer reinstall under the
// same key.
func (fs *FlowStore) RemoveIfCookie(k FlowKey, cookie uint64) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.st.flows[k]; ok && f.Cookie == cookie {
		delete(fs.st.flows, k)
		return true
	}
	return false
}

// Flows snapshots the intended flows. The IntendedFlow values share
// their Actions slices with the store; treat them as read-only.
func (fs *FlowStore) Flows() map[FlowKey]IntendedFlow {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[FlowKey]IntendedFlow, len(fs.st.flows))
	for k, v := range fs.st.flows {
		out[k] = v
	}
	return out
}

// Groups snapshots the intended groups.
func (fs *FlowStore) Groups() map[uint32]IntendedGroup {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[uint32]IntendedGroup, len(fs.st.groups))
	for k, v := range fs.st.groups {
		out[k] = v
	}
	return out
}

// Len returns the number of intended flows.
func (fs *FlowStore) Len() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.st.flows)
}

// stage computes, without committing anything, the undo batch for ops:
// the messages that, sent after all of ops landed, restore the intended
// state that held before the transaction — each op's inverse, the last
// op's first. Each inverse is computed against the state produced by
// the preceding ops (a cloned working copy), so chains like
// delete-then-readd invert correctly.
func (fs *FlowStore) stage(ops []zof.Message) []zof.Message {
	fs.mu.Lock()
	work := fs.st.clone()
	fs.mu.Unlock()
	inverse := make([][]zof.Message, len(ops))
	for i, op := range ops {
		inverse[i] = invertOp(&work, op)
		switch mod := op.(type) {
		case *zof.FlowMod:
			work.applyFlowMod(mod)
		case *zof.GroupMod:
			work.applyGroupMod(mod)
		}
	}
	slices.Reverse(inverse)
	return slices.Concat(inverse...)
}

// invertOp returns the messages undoing op given pre-op state st.
func invertOp(st *storeState, op zof.Message) []zof.Message {
	switch m := op.(type) {
	case *zof.FlowMod:
		return invertFlowMod(st, m)
	case *zof.GroupMod:
		return invertGroupMod(st, m)
	}
	return nil
}

func invertFlowMod(st *storeState, m *zof.FlowMod) []zof.Message {
	var inv []zof.Message
	switch m.Command {
	case zof.FlowAdd:
		k := FlowKey{m.TableID, m.Match, m.Priority}
		if prev, ok := st.flows[k]; ok {
			inv = append(inv, prev.flowMod(k))
		} else {
			// Nothing was there: undo is a cookie-filtered strict delete,
			// so a concurrent reinstall under a different cookie survives
			// the rollback.
			inv = append(inv, &zof.FlowMod{
				Command:  zof.FlowDeleteStrict,
				TableID:  m.TableID,
				Match:    m.Match,
				Priority: m.Priority,
				Cookie:   m.Cookie,
				Flags:    zof.FlagCookieFilter,
				BufferID: zof.NoBuffer,
			})
		}
	case zof.FlowModify:
		for k, f := range st.flows {
			if k.TableID == m.TableID && m.Match.Subsumes(&k.Match) {
				inv = append(inv, f.flowMod(k))
			}
		}
	case zof.FlowDelete:
		for k, f := range st.flows {
			if k.TableID != m.TableID || !m.Match.Subsumes(&k.Match) {
				continue
			}
			if m.Flags&zof.FlagCookieFilter != 0 && f.Cookie != m.Cookie {
				continue
			}
			inv = append(inv, f.flowMod(k))
		}
	case zof.FlowDeleteStrict:
		k := FlowKey{m.TableID, m.Match, m.Priority}
		if f, ok := st.flows[k]; ok {
			if m.Flags&zof.FlagCookieFilter == 0 || f.Cookie == m.Cookie {
				inv = append(inv, f.flowMod(k))
			}
		}
	}
	return inv
}

func invertGroupMod(st *storeState, m *zof.GroupMod) []zof.Message {
	var inv []zof.Message
	switch m.Command {
	case zof.GroupAdd:
		if _, exists := st.groups[m.GroupID]; !exists {
			inv = append(inv, &zof.GroupMod{Command: zof.GroupDelete, GroupID: m.GroupID})
		}
	case zof.GroupModify:
		if prev, ok := st.groups[m.GroupID]; ok {
			inv = append(inv, prev.groupMod(zof.GroupModify, m.GroupID))
		} else {
			inv = append(inv, &zof.GroupMod{Command: zof.GroupDelete, GroupID: m.GroupID})
		}
	case zof.GroupDelete:
		prev, ok := st.groups[m.GroupID]
		if !ok {
			return nil
		}
		// Restore the group first, then the flows its delete cascaded
		// away — the switch validates group references on FlowAdd.
		inv = append(inv, prev.groupMod(zof.GroupAdd, m.GroupID))
		for k, f := range st.flows {
			if flowReferencesGroup(f.Actions, m.GroupID) {
				inv = append(inv, f.flowMod(k))
			}
		}
	}
	return inv
}

// commit applies ops to the intended state for real — called once a
// transaction's barrier fence confirms every op landed.
func (fs *FlowStore) commit(ops []zof.Message) {
	fs.Record(ops...)
}
