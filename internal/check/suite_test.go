package check

import (
	"fmt"
	"sync"
	"testing"
)

// TestSuiteViolationAccounting: every violation is counted, the first
// MaxViolations are retained, and Err names the count and the least violation
// by (cycle, checker, message) — whichever of several goroutines (shard
// workers' send hooks, in a machine) reported it first.
func TestSuiteViolationAccounting(t *testing.T) {
	s := NewSuite(Env{})
	if err := s.Err(); err != nil {
		t.Fatalf("fresh suite Err = %v, want nil", err)
	}
	const workers, each = 4, MaxViolations/2 + 1
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
	if got := s.Violations(); len(got) != MaxViolations {
		t.Errorf("retained %d violations, want MaxViolations = %d", len(got), MaxViolations)
	}
	if got := s.ViolationCount(); got != workers*each {
		t.Errorf("ViolationCount = %d, want %d (unretained still counted)", got, workers*each)
	}
	want := fmt.Sprintf("check: %d invariant violation(s); first: cycle 5: credits: failure 0 of worker 0", workers*each)
	if err := s.Err(); err == nil || err.Error() != want {
		t.Errorf("Err = %v, want %q", err, want)
	}
}
