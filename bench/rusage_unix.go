//go:build linux || darwin

package main

import (
	"runtime"
	"syscall"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return ru
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	rss := float64(rusage().Maxrss)
	if runtime.GOOS == "darwin" {
		return rss / 1e6 // bytes
	}
	return rss * 1024 / 1e6 // kilobytes
}
