package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

// benchSpec is BENCHMARK.json. It is the single source of metric names,
// units and bounds: workloads produce name → value, and render refuses
// any name the file does not list, so the two cannot drift apart.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if !metricNameRE.MatchString(m.Name) || m.Unit == "" || (m.Better != "higher" && m.Better != "lower") {
			return nil, fmt.Errorf("%s: malformed metric %+v", path, m)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("%s: metric %q listed twice", path, m.Name)
		}
		seen[m.Name] = true
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// render attaches units to a workload's values and enforces agreement
// with the listed set in both directions. Every end-to-end metric must be
// produced by every workload. A per-layer metric a workload's code path
// never reaches (the batch collector on apps-rmat, say) is reported as 0:
// the contract wants every name on every traced pass.
func (s *benchSpec) render(listed []metricSpec, values map[string]float64, zeroFill bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(listed))
	for _, m := range listed {
		v, ok := values[m.Name]
		if !ok && !zeroFill {
			return nil, fmt.Errorf("metric %q is listed in BENCHMARK.json but was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q measured as %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q was measured but is not listed in BENCHMARK.json for this pass", name)
		}
	}
	return out, nil
}

// envStamp says which machine and build produced a result file; compare
// refuses to set two files side by side when these differ.
type envStamp struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	L2         string `json:"l2_cache"`
	L3         string `json:"l3_cache"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

func stampEnv(root string) envStamp {
	e := envStamp{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown", // the driver's checkout is not a git repository
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	return e
}

// cacheSize reads cpu0's cache of the given level from sysfs ("4096K").
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) == fmt.Sprint(level) && strings.TrimSpace(string(typ)) != "Instruction" {
			size, _ := os.ReadFile(filepath.Join(d, "size"))
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// resultFile is what -out writes and compare reads. This benchmark
// defines the measuring stick and claims no gain, so Claim is always null.
type resultFile struct {
	Env   envStamp    `json:"env"`
	Runs  []runResult `json:"runs"`
	Claim *string     `json:"claim"`
}

func (f resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
