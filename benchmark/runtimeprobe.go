package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// runtimeDelta is what the Go runtime and the kernel accounted to this
// process between startRuntimeProbe and stop.
type runtimeDelta struct {
	cpuS       float64 // user + system CPU seconds, all goroutines
	gcCPUS     float64 // CPU seconds the garbage collector used
	allocBytes uint64
	mallocs    uint64
}

type runtimeProbe struct {
	mem   runtime.MemStats
	cpuS  float64
	gcCPU float64
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: gcCPUMetric}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{}
	runtime.ReadMemStats(&p.mem)
	p.gcCPU = gcCPUSeconds()
	p.cpuS = processCPUSeconds()
	return p
}

func (p *runtimeProbe) stop() runtimeDelta {
	cpu := processCPUSeconds()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return runtimeDelta{
		cpuS:       cpu - p.cpuS,
		gcCPUS:     gcCPUSeconds() - p.gcCPU,
		allocBytes: mem.TotalAlloc - p.mem.TotalAlloc,
		mallocs:    mem.Mallocs - p.mem.Mallocs,
	}
}

// resetPeakRSS makes the next round's peak RSS its own: it returns the
// previous round's garbage to the OS and resets the kernel's high-water
// mark (writing 5 to clear_refs, Linux 4.0+). Where the reset is refused the
// mark simply keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
				}
				return kb / 1024, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
