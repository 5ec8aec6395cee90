package fault

import (
	"math"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("corrupt=1e-3,faillinks=2,stall=0.25,creditloss=1e-5")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{CorruptRate: 1e-3, StallRate: 0.25, CreditLossRate: 1e-5, FailLinks: 2}
	if s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	if s2, err := ParseSpec(""); err != nil || s2 != (Spec{}) {
		t.Fatalf("empty spec: %+v, %v", s2, err)
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"corrupt=-0.1",       // negative rate
		"corrupt=1.5",        // rate above 1
		"corrupt=NaN",        // NaN rate
		"stall=+Inf",         // infinite rate
		"faillinks=-1",       // negative count
		"bogus=1",            // unknown key
		"corrupt",            // missing value
		"=3",                 // missing key
		"corrupt=zebra",      // unparsable value
		"creditloss=-1e-300", // tiny negative rate
	}
	for _, text := range bad {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", text)
		}
	}
}

// TestParseSpecRefusesProtocolKeys: the go-back-N parameters are package
// constants, so a spec that sets one is refused, naming the key.
func TestParseSpecRefusesProtocolKeys(t *testing.T) {
	for _, kv := range []string{"window=8", "retry=3", "timeout=100", "resync=512", "stallcycles=32"} {
		key, _, _ := strings.Cut(kv, "=")
		if _, err := ParseSpec("corrupt=0.01," + kv); err == nil || !strings.Contains(err.Error(), `unknown spec key "`+key+`"`) {
			t.Errorf("ParseSpec(%q) = %v, want it refused naming %q", kv, err, key)
		}
	}
}

func TestValidateRejectsNaN(t *testing.T) {
	s := Spec{CorruptRate: math.NaN()}
	if err := s.Validate(); err == nil {
		t.Error("NaN corrupt rate validated")
	}
	s = Spec{StallRate: math.Inf(1)}
	if err := s.Validate(); err == nil {
		t.Error("Inf stall rate validated")
	}
}

func TestCanonicalStable(t *testing.T) {
	s, err := ParseSpec("corrupt=0.001,faillinks=1")
	if err != nil {
		t.Fatal(err)
	}
	const want = "corrupt=0.001,stall=0,stallcycles=0,creditloss=0,faillinks=1,window=0,retry=0,timeout=0,resync=0"
	if got := s.Canonical(); got != want {
		t.Fatalf("canonical form drifted:\n got  %s\n want %s", got, want)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	spec := Spec{CorruptRate: 0.3, StallRate: 0.1, CreditLossRate: 0.2, FailLinks: 3}
	a := NewInjector(spec, 42, 12)
	b := NewInjector(spec, 42, 12)
	for i := 0; i < 1000; i++ {
		link := i % 12
		if a.CorruptNext(link) != b.CorruptNext(link) {
			t.Fatalf("corrupt stream diverged at draw %d", i)
		}
		if a.StallNext(link) != b.StallNext(link) {
			t.Fatalf("stall stream diverged at draw %d", i)
		}
		if a.DropCreditNext(link) != b.DropCreditNext(link) {
			t.Fatalf("credit stream diverged at draw %d", i)
		}
	}
	fa, fb := a.FailedLinks(12), b.FailedLinks(12)
	if len(fa) != 3 || len(fb) != 3 {
		t.Fatalf("failed-link counts: %v vs %v", fa, fb)
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("failed links diverged: %v vs %v", fa, fb)
		}
		if i > 0 && fa[i] <= fa[i-1] {
			t.Fatalf("failed links not sorted/distinct: %v", fa)
		}
	}
	// A different seed must pick a different corruption pattern.
	c := NewInjector(spec, 43, 12)
	same := 0
	for i := 0; i < 256; i++ {
		if a.CorruptNext(0) == c.CorruptNext(0) {
			same++
		}
	}
	if same == 256 {
		t.Error("seed 42 and 43 produced identical corrupt streams")
	}
}

func TestFailedLinksClamped(t *testing.T) {
	in := NewInjector(Spec{FailLinks: 100}, 1, 4)
	if got := in.FailedLinks(4); len(got) != 4 {
		t.Fatalf("FailedLinks over-requested: %v", got)
	}
	in = NewInjector(Spec{}, 1, 4)
	if got := in.FailedLinks(4); got != nil {
		t.Fatalf("zero FailLinks returned %v", got)
	}
}

func TestBudgetErrorDegraded(t *testing.T) {
	var err error = &BudgetError{Link: "t0", Attempts: 17}
	d, ok := err.(interface{ Degraded() bool })
	if !ok || !d.Degraded() {
		t.Fatal("BudgetError does not mark itself degraded")
	}
	if !strings.Contains(err.Error(), "t0") {
		t.Fatalf("error message missing link name: %v", err)
	}
}
