package controller

import (
	"maps"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/zof"
)

// switchFlows lists a switch's tables the way the store keys them.
func switchFlows(sw *dataplane.Switch) map[FlowKey]IntendedFlow {
	out := make(map[FlowKey]IntendedFlow)
	sw.Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()}, 1,
		func(rep zof.Message, _ uint32) {
			for _, f := range rep.(*zof.StatsReply).Flows {
				out[FlowKey{f.TableID, f.Match, f.Priority}] = IntendedFlow{Cookie: f.Cookie, Actions: f.Actions,
					IdleTimeout: f.IdleTimeout, HardTimeout: f.HardTimeout}
			}
		})
	return out
}

// mirrorCoverage counts what the chains reached: mods of each command
// the switch took and refused, and per drawn mask (none, exact, owner,
// scattered) the rules a delete removed and the rules its filter spared
// that the same delete unfiltered would have removed.
type mirrorCoverage struct {
	commands, refused          [4]int
	removed, spared            [4]int
	groupAdds, groupDels, gone int
}

// TestStoreTableMirrorsSwitch checks the store's claim to model the
// datapath, which the audit diff and the transaction undo rely on:
// seeded chains of FlowMods (all four commands, cookie masks drawn from
// none, exact, owner and scattered) and GroupMods go to a
// dataplane.Switch and to a storeState, and after every step the two
// hold the same flows, and as many groups. A mod the switch refuses is
// not applied to the store: the store records intent, and a refusal
// surfaces to the sender.
func TestStoreTableMirrorsSwitch(t *testing.T) {
	var cov mirrorCoverage
	for seed := 0; seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		sw := dataplane.NewSwitch(dataplane.Config{DPID: 1, NumTables: 2, Clock: func() time.Time { return time.Unix(0, 0) }})
		sw.AddPort(1, "", 1000)
		sw.AddPort(2, "", 1000)
		st := newStoreState()
		for step := 0; step < 40; step++ {
			var b [3]byte
			rng.Read(b[:])
			var msg zof.Message
			var mask int
			if op := rng.Intn(9); op < 7 {
				k, f := undoKey(b[0]), undoFlow(b[1], []uint32{1, 2, 3})
				mask = int(b[2] & 3)
				fm := &zof.FlowMod{Command: uint8(op % 4), TableID: k.TableID, Match: k.Match, Priority: k.Priority,
					Cookie: f.Cookie, CookieMask: drawnMask(b[2], b[1]), Actions: f.Actions, BufferID: zof.NoBuffer}
				if fm.Command >= zof.FlowDelete {
					unfiltered := *fm
					unfiltered.CookieMask = 0
					cov.spared[mask] += countDeleted(st, &unfiltered) - countDeleted(st, fm)
				}
				msg = fm
			} else if op == 7 {
				msg = undoGroup(b[1]).groupMod(zof.GroupAdd, 1+uint32(b[0]%3))
			} else {
				msg = &zof.GroupMod{Command: zof.GroupDelete, GroupID: 1 + uint32(b[0]%3)}
			}
			refused := false
			sw.Process(msg, uint32(step), func(rep zof.Message, _ uint32) {
				_, refused = rep.(*zof.Error)
			})
			n := len(st.flows)
			switch m := msg.(type) {
			case *zof.FlowMod:
				if refused {
					cov.refused[m.Command]++
					break
				}
				cov.commands[m.Command]++
				st.applyFlowMod(m)
				if m.Command >= zof.FlowDelete {
					cov.removed[mask] += n - len(st.flows)
				}
			case *zof.GroupMod:
				if refused {
					break
				}
				if m.Command == zof.GroupAdd {
					cov.groupAdds++
				} else {
					cov.groupDels++
				}
				st.applyGroupMod(m)
				cov.gone += n - len(st.flows)
			}
			if got := switchFlows(sw); !maps.EqualFunc(got, st.flows, IntendedFlow.equal) {
				t.Fatalf("seed %d step %d: after %+v the switch holds %v, the store %v", seed, step, msg, got, st.flows)
			}
			if got := sw.GroupCount(); got != len(st.groups) {
				t.Fatalf("seed %d step %d: after %+v the switch holds %d groups, the store %d", seed, step, msg, got, len(st.groups))
			}
		}
	}
	t.Logf("%+v", cov)
	for i := range 4 {
		if cov.commands[i] < 3000 || cov.removed[i] < 40 || i > 0 && cov.spared[i] < 400 {
			t.Fatalf("chains too sparse to compare store and switch: %+v", cov)
		}
	}
	if cov.refused[zof.FlowAdd] < 1000 || cov.groupAdds < 1000 || cov.groupDels < 1000 || cov.gone < 300 {
		t.Fatalf("chains too sparse to compare store and switch: %+v", cov)
	}
}

// countDeleted is how many of st's flows the delete m takes.
func countDeleted(st storeState, m *zof.FlowMod) int {
	after := st.clone()
	after.applyFlowMod(m)
	return len(st.flows) - len(after.flows)
}
