package exp

import "testing"

// degradedValue stands in for a measurement that completed by rerouting
// around a permanent fault.
type degradedValue struct{ deg bool }

func (v degradedValue) Degraded() bool { return v.deg }

func TestDegradedValueClassified(t *testing.T) {
	jobs := []Job{
		{Spec: NewSpec("deg").Add("i", 0), Run: func(uint64) (any, error) {
			return degradedValue{deg: true}, nil
		}},
		{Spec: NewSpec("deg").Add("i", 1), Run: func(uint64) (any, error) {
			return degradedValue{deg: false}, nil
		}},
	}
	rs := Run(jobs, Serial())
	if rs[0].Err != nil || !rs[0].Degraded {
		t.Errorf("degraded value not classified: %+v", rs[0])
	}
	if rs[1].Degraded {
		t.Errorf("clean value wrongly classified degraded: %+v", rs[1])
	}
}

// degradedErr is an error that reports Degraded() true, like
// *fault.BudgetError does.
type degradedErr struct{}

func (degradedErr) Error() string  { return "retry budget exhausted" }
func (degradedErr) Degraded() bool { return true }

func TestDegradedErrorClassified(t *testing.T) {
	j := Job{Spec: NewSpec("budget"), Run: func(uint64) (any, error) {
		return nil, degradedErr{}
	}}
	rs := Run([]Job{j}, Serial())
	if rs[0].Err == nil || !rs[0].Degraded {
		t.Errorf("degraded error not classified: %+v", rs[0])
	}
}
