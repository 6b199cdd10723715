package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// box fingerprints the host a run measured on. Timings from different
// boxes are not comparable, so compare refuses to mix them.
type box struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// clampedBox caps GOMAXPROCS at the CPUs this process may use, then
// fingerprints the box.
func clampedBox() box {
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	return box{CPU: cpuModel(), NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// cpuModel reads the first model name the kernel reports.
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

// record is one run's output as written by -out and read by -against.
type record struct {
	Box      box                `json:"box"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
}

func writeRecord(path string, r record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	return nil
}

// compare prints cur's metrics against the record at path, as new/old
// ratios. It refuses records from another box, workload or run kind.
func compare(w io.Writer, path string, cur record) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read record: %w", err)
	}
	var old record
	if err := json.Unmarshal(b, &old); err != nil {
		return fmt.Errorf("read record %s: %w", path, err)
	}
	if err := checkComparable(old, cur); err != nil {
		return err
	}
	names := make([]string, 0, len(cur.Metrics))
	for n := range cur.Metrics {
		if _, ok := old.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "against %-32s %14.6g -> %-14.6g x%.4f\n", n, old.Metrics[n], cur.Metrics[n], ratio(cur.Metrics[n], old.Metrics[n]))
	}
	return nil
}

// checkComparable reports why two records may not be compared, if they may not.
func checkComparable(old, cur record) error {
	if old.Box != cur.Box {
		return fmt.Errorf("refusing to compare runs from different boxes: %+v vs %+v", old.Box, cur.Box)
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		return fmt.Errorf("refusing to compare %s trace=%d with %s trace=%d", old.Workload, old.Trace, cur.Workload, cur.Trace)
	}
	return nil
}
