package packet

import "testing"

func TestSizeForPayload(t *testing.T) {
	cases := []struct {
		bytes int
		want  uint8
	}{
		{0, 1}, {1, 1}, {CommonPayloadBytes, 1},
		{CommonPayloadBytes + 1, 2}, {MaxPayloadBytes, 2},
	}
	for _, c := range cases {
		if got := SizeForPayload(c.bytes); got != c.want {
			t.Errorf("SizeForPayload(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("SizeForPayload(%d) did not panic", MaxPayloadBytes+1)
		}
	}()
	SizeForPayload(MaxPayloadBytes + 1)
}

func TestResetPreservesPayloadCapacity(t *testing.T) {
	p := &Packet{ID: 7, Payload: make([]byte, 16, 32), TorusHops: 3}
	p.Reset()
	if p.ID != 0 || p.TorusHops != 0 {
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
