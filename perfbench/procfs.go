package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on every
// mainstream Linux build).
const clockTicks = 100

// procCPUSeconds returns the user+system CPU time pid has used.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: malformed stat for pid %d", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: short stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procfs: bad cpu times for pid %d", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// resetPeakRSS restarts pid's VmHWM from its current resident set size, so
// a later procPeakRSSMB covers only what ran in between.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// procPeakRSSMB returns VmHWM (peak resident set size) of pid in MB.
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("procfs: no VmHWM for pid %d", pid)
}

// provenance describes the host, toolchain and source a result came from.
type provenance struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	GitDirty   string `json:"git_dirty"`
	SourceHash string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Heldout    bool   `json:"heldout"`
	InputSeed  uint64 `json:"input_seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func collectProvenance(root string) provenance {
	p := provenance{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitCommit:  envOr("PERFBENCH_GIT_COMMIT", "unknown"),
		GitDirty:   envOr("PERFBENCH_GIT_DIRTY", "unknown"),
		SourceHash: sourceHash(root),
	}
	return p
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources and module files under root, so a
// result can be tied to its code even where the checkout is not a git
// repository.
func sourceHash(root string) string {
	if root == "" {
		return "unknown"
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
