package dataplane

import (
	"encoding/binary"

	"repro/internal/packet"
	"repro/internal/zof"
)

// rewrite applies one set-field action to the frame bytes, keeping
// x.frame in sync; the IP and transport edits, with their checksum
// fix-ups, are the packet rewrite kernel's. Rewrites are copy-on-write:
// the first one moves borrowed bytes into a buffer the exec owns
// (ensureOwned), so the caller's slice — possibly still being flooded
// to other switches — is never mutated. It returns the (possibly new)
// frame slice.
func (x *exec) rewrite(data []byte, a *zof.Action) []byte {
	f := &x.frame
	switch a.Type {
	case zof.ActSetEthSrc:
		data = x.ensureOwned(data)
		copy(data[6:12], a.MAC[:])
		f.Eth.Src = a.MAC
	case zof.ActSetEthDst:
		data = x.ensureOwned(data)
		copy(data[0:6], a.MAC[:])
		f.Eth.Dst = a.MAC
	case zof.ActSetVLAN:
		if f.Has(packet.LayerVLAN) {
			data = x.ensureOwned(data)
			tci := uint16(f.VLAN.Priority)<<13 | a.VLAN&0x0fff
			if f.VLAN.DropOK {
				tci |= 0x1000
			}
			binary.BigEndian.PutUint16(data[14:16], tci)
			f.VLAN.VLAN = a.VLAN & 0x0fff
		} else {
			// Push a tag: insert 4 bytes after the MAC addresses, into
			// the exec's other buffer.
			nd := x.next(len(data) + 4)
			copy(nd, data[:12])
			binary.BigEndian.PutUint16(nd[12:14], packet.EtherTypeVLAN)
			binary.BigEndian.PutUint16(nd[14:16], a.VLAN&0x0fff)
			binary.BigEndian.PutUint16(nd[16:18], f.Eth.EtherType)
			copy(nd[18:], data[14:])
			data = nd
			// Re-decode to refresh every layer offset/alias.
			_ = packet.Decode(data, f)
		}
	case zof.ActStripVLAN:
		if f.Has(packet.LayerVLAN) {
			nd := x.next(len(data) - 4)
			copy(nd, data[:12])
			binary.BigEndian.PutUint16(nd[12:14], f.VLAN.EtherType)
			copy(nd[14:], data[18:])
			data = nd
			_ = packet.Decode(data, f)
		}
	case zof.ActSetIPSrc:
		if f.Has(packet.LayerIPv4) {
			data = x.ensureOwned(data)
			f.SetIPv4Src(data, a.IP)
		}
	case zof.ActSetIPDst:
		if f.Has(packet.LayerIPv4) {
			data = x.ensureOwned(data)
			f.SetIPv4Dst(data, a.IP)
		}
	case zof.ActSetTOS:
		if f.Has(packet.LayerIPv4) {
			data = x.ensureOwned(data)
			f.SetIPv4TOS(data, a.TOS)
		}
	case zof.ActSetTPSrc:
		if f.Has(packet.LayerIPv4) && f.Has(packet.LayerTCP|packet.LayerUDP) {
			data = x.ensureOwned(data)
			f.SetL4Src(data, a.TP)
		}
	case zof.ActSetTPDst:
		if f.Has(packet.LayerIPv4) && f.Has(packet.LayerTCP|packet.LayerUDP) {
			data = x.ensureOwned(data)
			f.SetL4Dst(data, a.TP)
		}
	case zof.ActSetQueue:
		// Queues are an accounting notion in this datapath; nothing to
		// rewrite.
	}
	return data
}
