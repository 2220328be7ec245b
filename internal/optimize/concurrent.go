package optimize

import (
	"runtime"
	"sync"
)

// Task is one unit of a concurrent multi-start: an objective and its
// gradient with their own (private) closure state, a start point, and
// per-task options. Tasks must not share mutable state through their closures
// unless that state is independently synchronized — the whole point of
// per-task objectives is to give each minimization private scratch.
type Task struct {
	F    Objective
	Grad Gradient
	X0   []float64
	Opts Options
}

// RunConcurrent minimizes every task over the shared box [lo, hi] using at
// most workers goroutines (workers <= 0 means GOMAXPROCS; workers == 1 runs
// inline with no goroutines). Results come back in task order, so any
// selection the caller performs is deterministic regardless of scheduling,
// and the returned error is the one from the lowest-index failing task —
// exactly what a sequential loop over the tasks would surface.
func RunConcurrent(tasks []Task, lo, hi []float64, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	results := make([]Result, len(tasks))
	errs := make([]error, len(tasks))
	if workers <= 1 {
		for i, t := range tasks {
			results[i], errs[i] = Minimize(t.F, t.Grad, t.X0, lo, hi, t.Opts)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					t := tasks[i]
					results[i], errs[i] = Minimize(t.F, t.Grad, t.X0, lo, hi, t.Opts)
				}
			}()
		}
		for i := range tasks {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
