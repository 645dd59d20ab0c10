//go:build unix

package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size. On Linux it is VmHWM of
// /proc/self/status, the high-water mark of this program's own address space:
// ru_maxrss survives exec, so under `go run` it starts at what the go tool
// held when it forked (25 MB, more than three of the workloads ever use).
// Elsewhere it is ru_maxrss, in kilobytes on the BSDs and in bytes on Darwin.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / (1 << 10)
				}
			}
		}
	}
	rss := float64(rusage().Maxrss)
	if runtime.GOOS == "darwin" {
		return rss / (1 << 20)
	}
	return rss / (1 << 10)
}
