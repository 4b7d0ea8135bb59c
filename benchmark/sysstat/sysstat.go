// Package sysstat reads one process's resource counters: CPU time, Go
// allocation and GC totals, and peak resident memory. The benchmark server
// serves a Stat of itself and the driver reads one of its own, and both take
// differences between two readings.
package sysstat

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// Stat is a point-in-time reading. All counters are cumulative since process
// start.
type Stat struct {
	CPUNs        int64  `json:"cpu_ns"` // user + system
	Mallocs      uint64 `json:"mallocs"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	GCCycles     uint32 `json:"gc_cycles"`
	GCPauseNs    uint64 `json:"gc_pause_ns"`
	PeakRSSBytes int64  `json:"peak_rss_bytes"` // VmHWM; 0 where /proc is absent
}

// Read takes a reading of the calling process.
func Read() Stat {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := Stat{
		Mallocs:      ms.Mallocs,
		AllocBytes:   ms.TotalAlloc,
		GCCycles:     ms.NumGC,
		GCPauseNs:    ms.PauseTotalNs,
		PeakRSSBytes: peakRSS(),
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return s
}

func peakRSS() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}
