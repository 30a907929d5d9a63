package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU returns the process's user plus system CPU time.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// resetPeakRSS resets the kernel's resident-set high-water mark to the
// current resident set, so a later peakRSS covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the resident-set high-water mark in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

// runtimeCounters is a snapshot of the Go runtime's cumulative counters.
type runtimeCounters struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	metrics.Read(runtimeSamples)
	return runtimeCounters{
		allocBytes: runtimeSamples[0].Value.Uint64(),
		mallocs:    runtimeSamples[1].Value.Uint64(),
		gcCPU:      runtimeSamples[2].Value.Float64(),
		totalCPU:   runtimeSamples[3].Value.Float64(),
	}
}

// promSnapshot maps each series of a Prometheus text exposition (name plus
// labels, as printed) to its value.
type promSnapshot map[string]float64

func scrapeMetrics(url string) (promSnapshot, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	snap := make(promSnapshot)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:i]] = v
	}
	return snap, nil
}

// sum adds the values of every series of the named metric.
func (p promSnapshot) sum(name string) float64 {
	var s float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// max returns the largest value among the named metric's series.
func (p promSnapshot) max(name string) float64 {
	var m float64
	for k, v := range p {
		if (k == name || strings.HasPrefix(k, name+"{")) && v > m {
			m = v
		}
	}
	return m
}
