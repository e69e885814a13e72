//go:build linux

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The Go runtime's timers wake about a
// millisecond late on a stock Linux kernel — several times a /find's
// service time — so the open-loop generator sleeps in the kernel's
// high-resolution nanosleep instead, which overshoots by tens of
// microseconds.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}

// settleDisk writes back every dirty page. Set-up leaves megabytes of
// them (the dataset, the loaded WAL, earlier servers' directories), and
// on ext4 an fsync during the measured phase would wait for that
// write-back: the stall would be the benchmark's, not the program's.
func settleDisk() { syscall.Sync() }
