package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Linux /proc accounting: per-process CPU time and peak RSS, machine-wide
// CPU steal, and the provenance block printed with every result.

// clockTicks is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuSeconds returns utime+stime of a process in seconds.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are space-separated, utime and stime being the
	// 14th and 15th fields of the line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed utime/stime in /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB returns a process's VmHWM (peak resident set) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stealSample is a /proc/stat snapshot of the machine's aggregate CPU line.
type stealSample struct{ steal, total float64 }

func stealNow() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var s stealSample
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already inside user, so stop at steal.
		if i > 7 {
			break
		}
		s.total += x
		if i == 7 {
			s.steal = x
		}
	}
	return s
}

// frac is the share of machine CPU time stolen by the hypervisor since s.
func (s stealSample) frac() float64 {
	now := stealNow()
	if now.total <= s.total {
		return 0
	}
	return (now.steal - s.steal) / (now.total - s.total)
}

// provenance names the code and machine a result came from.
func provenance() map[string]any {
	p := map[string]any{
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"commit":     "unknown",
	}
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p["commit"] = strings.TrimSpace(string(b))
		}
	}
	// The benchmark usually runs in an exported checkout without git
	// metadata; the digest of the Go sources identifies the code anyway.
	if d, err := sourceDigest("."); err == nil {
		p["source_sha256"] = d
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root, skipping hidden
// directories (build output lives in .bench_build).
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
