//go:build !(linux || darwin)

package main

import "runtime"

// cpuSeconds is unavailable without getrusage; cpu_ns_per_ref reads 0.
func cpuSeconds() float64 { return 0 }

// peakRSSMB falls back to what the Go runtime has obtained from the OS.
func peakRSSMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}
