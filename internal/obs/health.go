package obs

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// goroutineSettle is how long CheckHealth waits for exiting goroutines
// to finish before it calls the excess a leak.
const goroutineSettle = 2 * time.Second

// CheckHealth is the process-health gate of the long-running binaries.
// heaps are post-GC heap samples taken in order while serving: the first
// quarter is warm-up (buffers growing to their high-water mark), and
// after it the minimum of the late half may exceed the minimum of the
// early half by at most heapSlack bytes. Fewer than four samples are too
// few to call a trend. Then, after a GC, the goroutine count must fall
// back to baseline, the count taken before serving began, within
// goroutineSettle. It returns every gate that fails.
func CheckHealth(heaps []uint64, heapSlack uint64, baseline int) error {
	var heapErr error
	if len(heaps) >= 4 {
		rest := heaps[len(heaps)/4:]
		mid := len(rest) / 2
		early, late := slices.Min(rest[:mid]), slices.Min(rest[mid:])
		if late > early+heapSlack {
			heapErr = fmt.Errorf("post-GC heap grew %d KiB across the run (early min %d KiB, late min %d KiB, slack %d KiB)",
				(late-early)/1024, early/1024, late/1024, heapSlack/1024)
		}
	}
	runtime.GC()
	deadline := time.Now().Add(goroutineSettle)
	final := runtime.NumGoroutine()
	for final > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		final = runtime.NumGoroutine()
	}
	var leakErr error
	if final > baseline {
		leakErr = fmt.Errorf("goroutine leak: %d before serving, %d after", baseline, final)
	}
	return errors.Join(heapErr, leakErr)
}
