package netem

import "sync/atomic"

// Partition is a symmetric cut of the control network: it groups the
// Channels that together carry the traffic crossing one boundary (a
// switch's southbound channel, a cluster instance's east-west peer
// links, or any mix) and blackholes them as a unit. Cut drops whole
// frames in BOTH directions of every member while keeping every stream
// open — each side sees a live, mute peer, the failure mode that forces
// lease expiry and probe-based detection rather than a clean EOF. Heal
// restores delivery on the same streams, modeling a transient partition
// that mends: both sides resume mid-session, which is exactly when
// stale-master fencing must hold.
type Partition struct {
	members []*Channel
	cut     atomic.Bool
	// base counters at the most recent Cut, so Dropped reports the
	// current (or last) partition's toll rather than a lifetime sum.
	baseTo, baseFrom uint64
}

// NewPartition groups channels into one heal-able cut. The partition
// starts healed.
func NewPartition(members ...*Channel) *Partition {
	return &Partition{members: members}
}

// Cut severs the partition: every member blackholes both directions.
// Idempotent; frame counters for Dropped reset at the first Cut after a
// Heal.
func (pt *Partition) Cut() {
	if pt.cut.Swap(true) {
		return
	}
	pt.baseTo, pt.baseFrom = pt.rawDropped()
	for _, ch := range pt.members {
		ch.Blackhole(true)
	}
}

// Heal restores delivery on every member. Idempotent. An end closed
// while cut stays unseen by its peer; callers wanting a clean slate
// follow with DropConnections on the members.
func (pt *Partition) Heal() {
	if !pt.cut.Swap(false) {
		return
	}
	for _, ch := range pt.members {
		ch.Blackhole(false)
	}
}

// IsCut reports whether the partition is currently severed.
func (pt *Partition) IsCut() bool { return pt.cut.Load() }

// Dropped returns the whole frames discarded per direction since the
// most recent Cut — toServer is the dialer→server direction summed over
// members, toDialer the reverse. Both sides of a symmetric cut keep
// transmitting until their failure detectors fire; the skew between the
// two numbers is the skew in detection latency.
func (pt *Partition) Dropped() (toServer, toDialer uint64) {
	s, d := pt.rawDropped()
	return s - pt.baseTo, d - pt.baseFrom
}

func (pt *Partition) rawDropped() (toServer, toDialer uint64) {
	for _, ch := range pt.members {
		toServer += ch.toServer.Load()
		toDialer += ch.toDialer.Load()
	}
	return
}
