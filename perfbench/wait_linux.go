package main

import (
	"syscall"
	"time"
)

// waitUntil returns at t. Go timers wake up to a millisecond late here
// (the netpoller's timeout resolution), which would add a generator
// delay longer than a cache hit to every request; a nanosleep system
// call wakes within about 0.1 ms and, unlike spinning, takes no CPU
// from the server in the same process.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}
