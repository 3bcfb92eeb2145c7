package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// environment is the block of results.json that says where the numbers
// were taken: they compare only against runs on the same kind of host.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Handles    int    `json:"handles"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// WALFS is the filesystem type under the durable workload's data
	// directories; WALState says how they start and end.
	WALFS          string  `json:"wal_fs"`
	WALState       string  `json:"wal_state"`
	FsyncPolicy    string  `json:"fsync_policy"`
	TimerQuantumMs float64 `json:"loadgen.timer_quantum_ms"`
	GitCommit      string  `json:"git_commit"`
}

// measureQuantum returns what a short time.Sleep really takes on this
// host, in ms: the median of 50 sleeps of 50 µs. Open-loop pacing can
// be late by about this much, and the lateness guard is scaled by it.
func measureQuantum() float64 {
	var ms []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		ms = append(ms, millis(time.Since(t0).Nanoseconds()))
	}
	return quantile(ms, 0.5)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir (or its nearest existing
// parent) from the statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	for {
		if err := syscall.Statfs(dir, &st); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// gitCommit reads the checked-out commit from .git without running
// git; a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", rest))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

func describeEnvironment(handles int, quantumMs float64, outDir string) environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Handles: handles,
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		WALFS:          fsType(outDir),
		WALState:       "fresh os.MkdirTemp directory per set-up, removed after the run",
		FsyncPolicy:    "always",
		TimerQuantumMs: quantumMs, GitCommit: gitCommit(),
	}
}
