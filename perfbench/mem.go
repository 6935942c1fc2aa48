package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// releaseMemory returns freed memory to the OS. It runs once before each
// workload, so a workload's peak_rss_mb is its own even when another ran
// before it in the same process. Between repetitions the heap keeps its
// pages, as in a long-running campaign: re-faulting a gigabyte on every
// repetition costs about a second on paper131k, and how much depends on
// the host.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS resets the kernel's resident-set high-water mark (VmHWM) to
// the current resident set: writing 5 to clear_refs (Linux 4.0+).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// stealSeconds reads the machine's cumulative stolen CPU time, summed
// over CPUs: time a hypervisor ran something else on this machine's
// virtual CPUs. It is 0 where /proc/stat has no steal column, so every
// repetition there counts as quiet.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
