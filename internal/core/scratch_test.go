package core

import (
	"sync"
	"testing"
)

// TestScratchPoolStatsConcurrent: read while another goroutine checks scratch
// out, ScratchPoolStats never reports more allocations than checkouts, so the
// hit count the server renders as gets-news cannot wrap around.
func TestScratchPoolStatsConcurrent(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				getScratch() // never released, so every checkout is a pool miss
			}
		}
	}()
	for start := scratchGets.Load(); scratchGets.Load() < start+1000; {
		// wait for the checkouts to be under way
	}
	const reads = 1_000_000
	bad := 0
	for i := 0; i < reads; i++ {
		if gets, news := ScratchPoolStats(); news > gets {
			bad++
		}
	}
	close(stop)
	wg.Wait()
	if bad > 0 {
		t.Errorf("%d of %d reads had news > gets", bad, reads)
	}
}
