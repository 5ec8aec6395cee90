package check

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"anton2/internal/wire"
)

// TestSuiteViolationAccounting: every violation is counted, and Err names the
// count and the least violation by (cycle, checker, message) — whichever of
// several goroutines (shard workers' send hooks, in a machine) reported it
// first.
func TestSuiteViolationAccounting(t *testing.T) {
	s := NewSuite(Env{})
	if err := s.Err(); err != nil {
		t.Fatalf("fresh suite Err = %v, want nil", err)
	}
	const workers, each = 4, 9
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := each - 1; i >= 0; i-- {
				s.violate(credits, uint64(5+i), "failure %d of worker %d", i, w)
			}
		}(w)
	}
	wg.Wait()
	want := fmt.Sprintf("check: %d invariant violation(s); first: cycle 5: credits: failure 0 of worker 0", workers*each)
	if err := s.Err(); err == nil || err.Error() != want {
		t.Errorf("Err = %v, want %q", err, want)
	}
}

// TestSuiteStateRefusesOverflow: a record whose violation count or multicast
// count does not fit an int fails to restore. Read unchecked, a count of
// 2^63 made Err report a negative number of violations, and the suite
// re-encoded the same bytes, so no round trip could object.
func TestSuiteStateRefusesOverflow(t *testing.T) {
	record := func(owed, vcount uint64) []byte {
		c := wire.NewEncoder(nil)
		var zero, one uint64 = 0, 1
		for range 4 { // the ledger
			c.Uvarint(&zero)
		}
		c.Uvarint(&one) // one multicast count: group, node, ep, owed, got
		for _, v := range []uint64{0, 0, 0, owed, 0} {
			c.Uvarint(&v)
		}
		c.Uvarint(&vcount)
		if vcount > 0 {
			least := violation{Cycle: 1, Checker: "credits", Msg: "m"}
			c.Uvarint(&least.Cycle)
			c.String(&least.Checker)
			c.String(&least.Msg)
		}
		return c.Buf()
	}
	restore := func(b []byte) (*Suite, error) {
		s := NewSuite(Env{})
		r := wire.NewDecoder(b)
		s.State(r)
		if r.Err() == nil && len(r.Buf()) != 0 {
			t.Fatalf("%d bytes left unread", len(r.Buf()))
		}
		return s, r.Err()
	}
	if s, err := restore(record(1, 2)); err != nil || s.Err() == nil || !strings.HasPrefix(s.Err().Error(), "check: 2 invariant") {
		t.Fatalf("a valid record: restore %v, suite %v", err, s.Err())
	}
	for name, b := range map[string][]byte{
		"violation count 2^63": record(1, 1<<63),
		"owed count 2^63":      record(1<<63, 0),
	} {
		if s, err := restore(b); err == nil {
			t.Errorf("%s restored; the suite reports %v", name, s.Err())
		}
	}
}
