package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and build a result was measured on.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	// Link states what the one real-socket workload crossed: the host's
	// loopback interface, never a real link.
	Link string `json:"link"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
		Link:       "loopback",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.GitRev = s.Value
			}
		}
	}
	return fp
}

// calibration is the pair of host probes run before and after the reps:
// a noisy spell on the host shows here instead of being mistaken for a
// regression in the program.
type calibration struct {
	CPUSeconds float64 `json:"cal_cpu_s"`
	MemSeconds float64 `json:"cal_mem_s"`
}

var calSink uint64

// calibrate runs both probes in this process. It allocates 64 MB, so the
// harness calls it in a child process (runCalibration) to keep the
// measured process's peak RSS its own.
func calibrate() calibration {
	// L1-resident: a dependent multiply-add chain, no memory traffic.
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 300_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calSink += x
	cpu := time.Since(t0).Seconds()

	// Memory-bound: dependent loads over a 64 MB table holding one
	// 2^24-cycle (a full-period LCG over the index space), so every hop
	// is a cache miss the prefetcher cannot predict.
	const n = 1 << 24
	tab := make([]uint32, n)
	for i := range tab {
		tab[i] = uint32((1664525*uint64(i) + 1013904223) % n)
	}
	t0 = time.Now()
	idx := uint32(0)
	for i := 0; i < 3_000_000; i++ {
		idx = tab[idx]
	}
	calSink += uint64(idx)
	mem := time.Since(t0).Seconds()
	return calibration{CPUSeconds: cpu, MemSeconds: mem}
}

// runCalibration runs calibrate in a child process and waits for it.
func runCalibration() (calibration, error) {
	exe, err := os.Executable()
	if err != nil {
		return calibration{}, fmt.Errorf("calibration: %w", err)
	}
	out, err := exec.Command(exe, "-calibrate").Output()
	if err != nil {
		return calibration{}, fmt.Errorf("calibration child: %w", err)
	}
	var c calibration
	if err := json.Unmarshal(out, &c); err != nil {
		return calibration{}, fmt.Errorf("calibration output: %w", err)
	}
	return c, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
