package optimize

import (
	"runtime"
	"sync"
)

// ForEach runs fn(0), …, fn(n−1) on up to `workers` goroutines (0 means
// GOMAXPROCS, 1 runs inline) and returns the error of the lowest failing
// index — the one a sequential loop would have surfaced first. fn must write
// its outputs into index-addressed slots, so whatever the caller derives
// from them in index order is independent of scheduling.
func ForEach(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
