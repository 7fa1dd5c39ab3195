package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"insidedropbox/internal/telemetry"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the operating system and restarts
// the kernel's resident-set high-water mark (VmHWM) at the current
// resident size, so the next peakRSS reading covers only what runs in
// between: set-up and earlier iterations cannot leak into it. Without
// /proc the reading stays the process's lifetime peak.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the resident-set high-water mark in MiB: VmHWM when
// /proc is available, otherwise the process-lifetime ru_maxrss.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
				kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(v, []byte("kB")))), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// counters is a delta of the process-global telemetry registry across
// one iteration. A counter the registry does not hold is absent from the
// map, never zero.
type counters map[string]uint64

func counterDelta(before, after telemetry.Snap) counters {
	d := make(counters, len(after.Counters))
	for name, v := range after.Counters {
		d[name] = v - before.Counters[name]
	}
	return d
}

// sum adds the named counters; ok is false when any of them is absent.
func (c counters) sum(names ...string) (total float64, ok bool) {
	for _, name := range names {
		v, present := c[name]
		if !present {
			return 0, false
		}
		total += float64(v)
	}
	return total, true
}

// quantile interpolates linearly between order statistics of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// dist summarizes a sample: median and quartiles.
type dist struct {
	n           int
	q1, med, q3 float64
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{n: len(s), q1: quantile(s, 0.25), med: quantile(s, 0.5), q3: quantile(s, 0.75)}
}
