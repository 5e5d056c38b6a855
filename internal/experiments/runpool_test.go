package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPoolInputOrder(t *testing.T) {
	// Tasks finish in scrambled wall-clock order; results must still come
	// back in input order.
	const n = 32
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		tasks[i] = Task[int]{
			Name: fmt.Sprintf("t%d", i),
			Run: func() (int, error) {
				time.Sleep(time.Duration((i*7)%5) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	for _, workers := range []int{1, 4, 8} {
		res, err := RunAll(NewRunPool(workers), tasks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != n {
			t.Fatalf("workers=%d: %d results", workers, len(res))
		}
		for i, r := range res {
			if r != i*i {
				t.Fatalf("workers=%d: res[%d] = %d", workers, i, r)
			}
		}
	}
}

func TestRunPoolDefaults(t *testing.T) {
	if got := NewRunPool(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := NewRunPool(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d for negative input", got)
	}
	if res, err := RunAll[int](NewRunPool(4), nil); res != nil || err != nil {
		t.Errorf("empty task list: res=%v err=%v", res, err)
	}
}

func TestRunPoolEarlyError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	mk := func(n int, failAt int) []Task[int] {
		tasks := make([]Task[int], n)
		for i := 0; i < n; i++ {
			tasks[i] = Task[int]{
				Name: fmt.Sprintf("task-%d", i),
				Run: func() (int, error) {
					started.Add(1)
					if i == failAt {
						return 0, boom
					}
					return i, nil
				},
			}
		}
		return tasks
	}

	// Sequential (workers=1): exactly the tasks up to and including the
	// failing one run, and the error names the failing task.
	started.Store(0)
	_, err := RunAll(NewRunPool(1), mk(16, 4))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), `"task-4"`) {
		t.Errorf("error must name the failing task: %v", err)
	}
	if got := started.Load(); got != 5 {
		t.Errorf("sequential: %d tasks started, want 5", got)
	}

	// Parallel: the pool stops dispatching after the failure, so far fewer
	// than all tasks start (in-flight ones may still finish).
	started.Store(0)
	const n, failAt, workers = 64, 0, 4
	_, err = RunAll(NewRunPool(workers), mk(n, failAt))
	if !errors.Is(err, boom) {
		t.Fatalf("parallel err = %v", err)
	}
	if got := started.Load(); got > n/2 {
		t.Errorf("parallel: %d of %d tasks started after early failure", got, n)
	}
}

func TestRunPoolLowestIndexError(t *testing.T) {
	// When several tasks fail, the reported error is the lowest-index one
	// regardless of completion order.
	errA, errB := errors.New("a"), errors.New("b")
	tasks := []Task[int]{
		{Name: "slow-fail", Run: func() (int, error) {
			time.Sleep(20 * time.Millisecond)
			return 0, errA
		}},
		{Name: "fast-fail", Run: func() (int, error) { return 0, errB }},
	}
	_, err := RunAll(NewRunPool(2), tasks)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the lower-index failure", err)
	}
}

func TestRunPoolPanicPropagates(t *testing.T) {
	tasks := []Task[int]{
		{Name: "ok", Run: func() (int, error) { return 1, nil }},
		{Name: "bad", Run: func() (int, error) { panic("kaboom") }},
		{Name: "ok2", Run: func() (int, error) { return 2, nil }},
	}
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", r)
		}
	}()
	RunAll(NewRunPool(2), tasks)
	t.Fatal("must panic")
}

// TestRunPoolDeterminism is the tentpole guarantee: a full grid driver
// produces byte-identical output whether the simulations run sequentially or
// fanned out across 8 workers.
func TestRunPoolDeterminism(t *testing.T) {
	outputs := make([]string, 2)
	for i, workers := range []int{1, 8} {
		o, buf := tiny()
		o.Workers = workers
		if _, err := Fig5(o, []string{"BFS", "canneal"}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outputs[i] = buf.String()
	}
	if outputs[0] != outputs[1] {
		t.Errorf("fig5 output differs between -workers=1 and -workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s",
			outputs[0], outputs[1])
	}
	if len(outputs[0]) == 0 {
		t.Error("fig5 produced no output")
	}
}

// TestRunPoolNoGoroutineLeak: pool workers and workload emitters must all
// terminate once RunAll returns, including on the error path (the stream
// CloseStream defers).
func TestRunPoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	o, _ := tiny()
	o.Workers = 4
	if _, err := Fig7(o, 0.9); err != nil {
		t.Fatal(err)
	}
	var after int
	for try := 0; try < 50; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
		if after <= before+1 {
			return
		}
	}
	t.Errorf("goroutines: %d before, %d after", before, after)
}
