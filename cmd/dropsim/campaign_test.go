package main

import (
	"strconv"
	"sync"
	"testing"
)

// TestCrashAfterShardConcurrent calls the kill-injection hook from
// several goroutines at once, as campaign jobs do under -workers N > 1;
// run it with -race. The threshold is never reached, so nothing exits.
func TestCrashAfterShardConcurrent(t *testing.T) {
	t.Setenv("DROPSIM_CRASH_AFTER_SHARD", strconv.Itoa(1<<30))
	hook := crashAfterShard()
	if hook == nil {
		t.Fatal("hook not installed")
	}
	var wg sync.WaitGroup
	for job := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				hook(job*100 + i)
			}
		}()
	}
	wg.Wait()
}
