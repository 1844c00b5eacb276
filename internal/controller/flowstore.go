package controller

import (
	"slices"
	"sync"

	"repro/internal/topo"
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

// deleteCookie builds the strict delete of the rule at k installed
// under exactly cookie (the all-ones mask): if an app reinstalls k
// while the delete is in flight, the new rule's cookie differs and the
// delete misses it.
func (k FlowKey) deleteCookie(cookie uint64) *zof.FlowMod {
	return &zof.FlowMod{
		Command:    zof.FlowDeleteStrict,
		TableID:    k.TableID,
		Match:      k.Match,
		Priority:   k.Priority,
		Cookie:     cookie,
		CookieMask: ^uint64(0),
		BufferID:   zof.NoBuffer,
	}
}

func (f IntendedFlow) equal(g IntendedFlow) bool {
	return f.Cookie == g.Cookie && f.Flags == g.Flags && f.IdleTimeout == g.IdleTimeout &&
		f.HardTimeout == g.HardTimeout && slices.Equal(f.Actions, g.Actions)
}

// groupMod rebuilds the GroupMod that would reinstall g as id.
func (g IntendedGroup) groupMod(cmd uint8, id uint32) *zof.GroupMod {
	return &zof.GroupMod{Command: cmd, GroupType: g.GroupType, GroupID: id, Buckets: g.Buckets}
}

func (g IntendedGroup) equal(h IntendedGroup) bool {
	return g.GroupType == h.GroupType && slices.EqualFunc(g.Buckets, h.Buckets, func(a, b zof.GroupBucket) bool {
		return a.Weight == b.Weight && a.WatchPort == b.WatchPort && slices.Equal(a.Actions, b.Actions)
	})
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
// intended state, including the deletes' cookie filter — so the apps'
// deletes keep store and switch in lockstep. Capacity and overlap are not modelled: the store
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
			if k.TableID == m.TableID && m.CookieMatches(f.Cookie) && m.Match.Subsumes(&k.Match) {
				delete(st.flows, k)
			}
		}
	case zof.FlowDeleteStrict:
		k := FlowKey{m.TableID, m.Match, m.Priority}
		if f, ok := st.flows[k]; ok && m.CookieMatches(f.Cookie) {
			delete(st.flows, k)
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

// apply applies the mods among msgs in order and skips the rest.
func (st *storeState) apply(msgs []zof.Message) {
	for _, m := range msgs {
		switch mod := m.(type) {
		case *zof.FlowMod:
			st.applyFlowMod(mod)
		case *zof.GroupMod:
			st.applyGroupMod(mod)
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
	fs.st.apply(msgs)
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

// undo returns the messages that, sent after ops, restore the intent
// the store holds now: the break-before-make diff from the intent with
// ops applied back to the intent itself. A commit that aborts never
// writes to the store, so at abort time the store is the
// pre-transaction intent plus whatever apps recorded meanwhile — a rule
// an app retracted while the fence was out stays retracted.
func (fs *FlowStore) undo(ops []zof.Message) []zof.Message {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	after := fs.st.clone()
	after.apply(ops)
	return diff(&after, &fs.st, breakBeforeMake, ^uint64(0))
}

// Transition returns, per node, the make-before-break batch that takes
// a switch holding the mods in from[node] to the state the mods in
// to[node] describe: each list is applied to an empty state, and only
// what differs is sent. A node whose batch would be empty gets no
// entry. Packages that keep desired state as wire messages (a TE
// program, an intent's rules) commit what it returns. Deletes match
// their unstamped cookies under any session epoch (appCookieMask).
func Transition(from, to map[topo.NodeID][]zof.Message) map[topo.NodeID][]zof.Message {
	ops := make(map[topo.NodeID][]zof.Message)
	a, b := newStoreState(), newStoreState()
	put := func(node topo.NodeID) {
		a.apply(from[node])
		b.apply(to[node])
		if batch := diff(&a, &b, makeBeforeBreak, appCookieMask); len(batch) > 0 {
			ops[node] = batch
		}
		clear(a.flows)
		clear(a.groups)
		clear(b.flows)
		clear(b.groups)
	}
	for node := range from {
		put(node)
	}
	for node := range to {
		if _, done := from[node]; !done {
			put(node)
		}
	}
	return ops
}

// RuleTemplate is what every rule compiled from one Forwarding shares.
type RuleTemplate struct {
	Match    zof.Match
	Priority uint16
	Cookie   uint64
	// GroupID names the select group of a switch with several out-ports.
	GroupID uint32
}

// CompileForwarding returns, per switch, the messages that install fw
// under t, in the shape Transition takes. Out-ports of weight 0 are
// dropped first. A switch left with one out-port gets a FlowAdd that
// outputs to it; a switch left with several gets a select GroupAdd
// with id t.GroupID, one bucket per port in the given order and
// weights, then a FlowAdd that names the group; a switch left with
// none gets no entry.
func CompileForwarding(fw topo.Forwarding, t RuleTemplate) map[topo.NodeID][]zof.Message {
	out := make(map[topo.NodeID][]zof.Message, len(fw))
	for node, ports := range fw {
		live, last := 0, uint32(0)
		for _, p := range ports {
			if p.Weight > 0 {
				live, last = live+1, p.Port
			}
		}
		if live == 0 {
			continue
		}
		var msgs []zof.Message
		action := zof.Output(last)
		if live > 1 {
			buckets := make([]zof.GroupBucket, 0, live)
			for _, p := range ports {
				if p.Weight > 0 {
					buckets = append(buckets, zof.GroupBucket{Weight: p.Weight, Actions: []zof.Action{zof.Output(p.Port)}})
				}
			}
			msgs = append(msgs, &zof.GroupMod{
				Command:   zof.GroupAdd,
				GroupType: zof.GroupTypeSelect,
				GroupID:   t.GroupID,
				Buckets:   buckets,
			})
			action = zof.Group(t.GroupID)
		}
		out[node] = append(msgs, &zof.FlowMod{
			Command:  zof.FlowAdd,
			Match:    t.Match,
			Priority: t.Priority,
			Cookie:   t.Cookie,
			BufferID: zof.NoBuffer,
			Actions:  []zof.Action{action},
		})
	}
	return out
}

// diffOrder is the order in which diff concatenates its four classes.
type diffOrder bool

const (
	// breakBeforeMake sends flow deletes, group deletes, group puts,
	// then flow puts: table space is freed before anything is re-added.
	// A group delete cascades onto the flows naming it; the flow puts
	// put back any the target still holds.
	breakBeforeMake diffOrder = false
	// makeBeforeBreak sends group puts, flow puts, flow deletes, then
	// group deletes: every prefix keeps the target's rules that from
	// already held, and no flow ever names an absent group.
	makeBeforeBreak diffOrder = true
)

// diff returns the messages that take a switch from one consistent
// state (every group a flow names exists) to another: strict deletes
// under the from cookie's cookieMask bits for flows the target lacks,
// deletes for its missing groups, a GroupAdd or GroupModify for each
// group that is absent or changed, and an add-or-replace FlowAdd for
// each flow that is absent or not equal. The switch checks group
// references on FlowAdd, so group puts always precede flow puts.
func diff(from, to *storeState, order diffOrder, cookieMask uint64) []zof.Message {
	var flowDels, groupDels, groupPuts, flowPuts []zof.Message
	for k, f := range from.flows {
		if _, ok := to.flows[k]; !ok {
			del := k.deleteCookie(f.Cookie)
			del.CookieMask = cookieMask
			flowDels = append(flowDels, del)
		}
	}
	for id := range from.groups {
		if _, ok := to.groups[id]; !ok {
			groupDels = append(groupDels, &zof.GroupMod{Command: zof.GroupDelete, GroupID: id})
		}
	}
	for id, g := range to.groups {
		if was, ok := from.groups[id]; !ok {
			groupPuts = append(groupPuts, g.groupMod(zof.GroupAdd, id))
		} else if !g.equal(was) {
			groupPuts = append(groupPuts, g.groupMod(zof.GroupModify, id))
		}
	}
	for k, f := range to.flows {
		if was, ok := from.flows[k]; !ok || !f.equal(was) {
			flowPuts = append(flowPuts, f.flowMod(k))
		}
	}
	if order == makeBeforeBreak {
		return slices.Concat(groupPuts, flowPuts, flowDels, groupDels)
	}
	return slices.Concat(flowDels, groupDels, groupPuts, flowPuts)
}
