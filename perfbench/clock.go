package main

import (
	"syscall"
	"time"
)

// The benchmark's clocks. Host time is what the benchmark measures; none
// of it ever reaches a simulator input or a simulated result.

// now reads the host's wall clock (with its monotonic reading).
func now() time.Time {
	return time.Now() //rarlint:allow determinism host-side benchmark timing; never enters simulated state
}

// since returns the host wall time elapsed since t.
func since(t time.Time) time.Duration {
	return time.Since(t) //rarlint:allow determinism host-side benchmark timing; never enters simulated state
}

// rusage reads the process's resource usage. Getrusage on RUSAGE_SELF
// cannot fail with a valid pointer, so an error is a broken platform and
// panics.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return ru
}

// cpuTime returns the CPU time the process has used so far, user plus
// system, over all its threads.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024
}
