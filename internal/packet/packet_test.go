package packet

import (
	"testing"
	"unsafe"
)

func TestResetPreservesPayloadCapacity(t *testing.T) {
	p := &Packet{InjectedAt: 7, Payload: make([]byte, 16, 32), TorusHops: 3}
	p.Reset()
	if p.InjectedAt != 0 || p.TorusHops != 0 {
		t.Errorf("Reset left fields: %+v", p)
	}
	if p.MGroup != -1 {
		t.Errorf("Reset MGroup = %d, want -1 (unicast)", p.MGroup)
	}
	if len(p.Payload) != 0 || cap(p.Payload) != 32 {
		t.Errorf("Reset payload len %d cap %d, want 0/32", len(p.Payload), cap(p.Payload))
	}
}

func TestHammingAndSetBits(t *testing.T) {
	if d := HammingDistance([]byte{0xFF}, []byte{0x0F}); d != 4 {
		t.Errorf("HammingDistance = %d, want 4", d)
	}
	if d := HammingDistance(nil, []byte{0xFF, 0x01}); d != 9 {
		t.Errorf("HammingDistance vs nil = %d, want 9", d)
	}
	if n := SetBits([]byte{0x03, 0x80}); n != 3 {
		t.Errorf("SetBits = %d, want 3", n)
	}
}

// TestPacketLayout keeps the fields every hop reads in the packet's first
// cache line, and the packet in the 192-byte size class, whose slots start
// on cache-line boundaries.
func TestPacketLayout(t *testing.T) {
	var p Packet
	if size := unsafe.Sizeof(p); size > 192 {
		t.Errorf("Packet is %d B, want ≤ 192", size)
	}
	for name, off := range map[string]uintptr{
		"Dst": unsafe.Offsetof(p.Dst), "Route": unsafe.Offsetof(p.Route),
		"Size": unsafe.Offsetof(p.Size), "PatternID": unsafe.Offsetof(p.PatternID),
		"CurVC": unsafe.Offsetof(p.CurVC), "TorusHops": unsafe.Offsetof(p.TorusHops),
		"SeenMVC": unsafe.Offsetof(p.SeenMVC), "SeenTVC": unsafe.Offsetof(p.SeenTVC),
		"SeenDim": unsafe.Offsetof(p.SeenDim), "ArrivedAt": unsafe.Offsetof(p.ArrivedAt),
		"Next":  unsafe.Offsetof(p.Next),
		"Trace": unsafe.Offsetof(p.Trace), // its pointer word
	} {
		if off >= 64 {
			t.Errorf("Packet.%s at offset %d, want < 64", name, off)
		}
	}
}
