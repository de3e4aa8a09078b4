package par

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	for _, limit := range []int{0, 1, 2, 16} {
		var ran [64]int32
		err := ForEach(limit, len(ran), func(i int) error {
			atomic.AddInt32(&ran[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("limit=%d: %v", limit, err)
		}
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("limit=%d: index %d ran %d times", limit, i, n)
			}
		}
	}
}

func TestForEachFirstError(t *testing.T) {
	want := errors.New("boom")
	err := ForEach(4, 32, func(i int) error {
		if i == 5 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestForEachSerialStopsAtError(t *testing.T) {
	var ran int
	err := ForEach(1, 10, func(i int) error {
		ran++
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if ran != 4 {
		t.Fatalf("serial ForEach ran %d tasks after error, want 4", ran)
	}
}

// bothFail runs ForEach with two workers over ten tasks whose first
// two start together and then both end through fail; it counts the
// other eight that start in started.
func bothFail(started *int32, fail func()) error {
	var arrived sync.WaitGroup
	arrived.Add(2)
	return ForEach(2, 10, func(i int) error {
		if i < 2 {
			arrived.Done()
			arrived.Wait() // each worker holds one of the first two
			fail()
			return errors.New("failed")
		}
		atomic.AddInt32(started, 1)
		return nil
	})
}

// TestGroupCancelSkipsQueued: once a task fails, ForEach starts none of
// the tasks still queued.
func TestGroupCancelSkipsQueued(t *testing.T) {
	var started int32
	if err := bothFail(&started, func() {}); err == nil {
		t.Fatal("error lost")
	}
	if n := atomic.LoadInt32(&started); n != 0 {
		t.Fatalf("%d queued tasks ran after cancellation", n)
	}
}

func TestGroupConcurrencyBound(t *testing.T) {
	const limit = 3
	var cur, max int32
	var mu sync.Mutex
	err := ForEach(limit, 50, func(int) error {
		n := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if n > max {
			max = n
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if max > limit {
		t.Fatalf("observed %d concurrent tasks, limit %d", max, limit)
	}
}

// TestWaitRepanics: a task's panic is re-raised on the ForEach caller
// with its cause.
func TestWaitRepanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic swallowed")
		}
		if !strings.Contains(r.(string), "kaboom") {
			t.Fatalf("panic value %v lost the cause", r)
		}
	}()
	ForEach(2, 4, func(int) error { panic("kaboom") })
	t.Fatal("ForEach returned after task panic")
}

// TestGroupPanicCancelsQueued: a panicking task must cancel everything
// queued behind it, exactly like an error — and ForEach still re-raises
// the panic after the skip.
func TestGroupPanicCancelsQueued(t *testing.T) {
	var started int32
	defer func() {
		if recover() == nil {
			t.Fatal("panic swallowed")
		}
		if n := atomic.LoadInt32(&started); n != 0 {
			t.Fatalf("%d queued tasks ran after a panic", n)
		}
	}()
	bothFail(&started, func() { panic("mid-batch crash") })
}

// TestGroupPanicBeatsError: when both a panic and an error are
// recorded, ForEach must re-raise the panic — losing a crash to a
// softer error would hide the real failure.
func TestGroupPanicBeatsError(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(2)
	errReturned := make(chan struct{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic lost to the earlier error")
		}
		if !strings.Contains(r.(string), "hard failure") {
			t.Fatalf("panic value %v lost the cause", r)
		}
	}()
	ForEach(2, 2, func(i int) error {
		arrived.Done()
		arrived.Wait()
		if i == 0 {
			defer close(errReturned)
			return errors.New("soft failure")
		}
		<-errReturned
		panic("hard failure")
	})
}

// TestForEachPanicPropagates: a panic inside fn surfaces on the ForEach
// caller for both the serial (limit 1) and pooled paths.
func TestForEachPanicPropagates(t *testing.T) {
	for _, limit := range []int{1, 4} {
		limit := limit
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("limit=%d: panic swallowed", limit)
				}
			}()
			ForEach(limit, 8, func(i int) error {
				if i == 2 {
					panic("worker crash")
				}
				return nil
			})
			t.Errorf("limit=%d: ForEach returned after panic", limit)
		}()
	}
}

// TestGroupConcurrentErrors: many tasks failing at once must record
// exactly one winner with no data race (run under -race) and never
// deadlock ForEach.
func TestGroupConcurrentErrors(t *testing.T) {
	err := ForEach(8, 64, func(i int) error { return errors.New("task " + string(rune('A'+i%26))) })
	if err == nil {
		t.Fatal("all errors lost")
	}
	if !strings.HasPrefix(err.Error(), "task ") {
		t.Fatalf("unexpected winner: %v", err)
	}
}
