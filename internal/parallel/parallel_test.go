package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetMaxWorkers(n)
	t.Cleanup(func() { SetMaxWorkers(prev) })
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		withWorkers(t, workers)
		got, err := Map(100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(0) = %v, %v", out, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	// Indexes 30 and 70 fail. The serial loop would surface 30's error;
	// the parallel run must return the same one no matter which worker
	// hits which index first.
	for _, workers := range []int{1, 4, 16} {
		withWorkers(t, workers)
		for trial := 0; trial < 20; trial++ {
			_, err := Map(100, func(i int) (int, error) {
				if i == 30 || i == 70 {
					return 0, fmt.Errorf("fail at %d", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "fail at 30" {
				t.Fatalf("workers=%d: err = %v, want fail at 30", workers, err)
			}
		}
	}
}

func TestMapErrorShortCircuits(t *testing.T) {
	withWorkers(t, 4)
	var calls atomic.Int64
	sentinel := errors.New("boom")
	_, err := Map(10_000, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n == 10_000 {
		t.Fatal("no short-circuit: every index ran despite the index-0 failure")
	}
}

func TestForEachMatchesSerial(t *testing.T) {
	serial := make([]float64, 512)
	for i := range serial {
		serial[i] = float64(i) * 1.5
	}
	for _, workers := range []int{1, 3, 8} {
		withWorkers(t, workers)
		got := make([]float64, 512)
		if err := ForEach(512, func(i int) error {
			got[i] = float64(i) * 1.5
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: index %d differs", workers, i)
			}
		}
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(3)
	defer SetMaxWorkers(prev)
	if MaxWorkers() != 3 {
		t.Fatalf("MaxWorkers = %d, want 3", MaxWorkers())
	}
	SetMaxWorkers(0)
	if MaxWorkers() < 1 {
		t.Fatal("default bound must be at least 1")
	}
	SetMaxWorkers(-5)
	if MaxWorkers() < 1 {
		t.Fatal("negative bound must reset to the default")
	}
}

// TestStressContention drives many small nested fan-outs with more workers
// than CPUs so `go test -race` (the tier-1 gate) exercises the pool under
// contention.
func TestStressContention(t *testing.T) {
	withWorkers(t, 8)
	for round := 0; round < 8; round++ {
		sums, err := Map(16, func(i int) (int, error) {
			inner, err := Map(32, func(j int) (int, error) { return i + j, nil })
			if err != nil {
				return 0, err
			}
			s := 0
			for _, v := range inner {
				s += v
			}
			return s, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sums {
			want := 32*i + 32*31/2
			if s != want {
				t.Fatalf("round %d: sums[%d] = %d, want %d", round, i, s, want)
			}
		}
	}
}

// TestMapRecoversPanics pins the goroutine boundary: a panicking task
// becomes its index's *PanicError (with the panic site's stack), and the
// lowest failing index still wins over later panics and plain errors, at
// every worker count.
func TestMapRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers)
		_, err := Map(64, func(i int) (int, error) {
			switch i {
			case 3, 40:
				panic(fmt.Sprintf("task %d", i))
			case 20:
				return 0, errors.New("plain error")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", workers, err)
		}
		if pe.Value != "task 3" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic %v with %d-byte stack, want task 3's with a stack", workers, pe.Value, len(pe.Stack))
		}
	}
}
