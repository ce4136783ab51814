package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTimes is the host-wide CPU time split read from /proc/stat.
type cpuTimes struct {
	total, steal uint64
	ok           bool
}

// cpuSteal samples the aggregate cpu line of /proc/stat; ok is false
// where the file does not exist or does not parse.
func cpuSteal() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// since returns the share of CPU time stolen between t0 and t, or -1
// when either sample is unavailable.
func (t cpuTimes) since(t0 cpuTimes) float64 {
	if !t.ok || !t0.ok || t.total <= t0.total {
		return -1
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}
