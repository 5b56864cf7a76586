package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd lists the metrics a --trace 0 run reports on its last line:
// those a user of every workload waits for or pays. BENCHMARK.json
// lists the same names.
var endToEnd = []string{"setup_s", "study_s", "peak_rss_mb", "ops_per_s"}

// metric is one measured value.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// provenance identifies what produced a result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Scale      string `json:"scale"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Traced     bool   `json:"traced"`
	RunSeconds int    `json:"run_seconds"`
}

// report collects one run's metrics and its output-check tally.
type report struct {
	Provenance provenance `json:"provenance"`
	Metrics    []metric   `json:"metrics"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	Failures   []string   `json:"failures,omitempty"`
	Notes      []string   `json:"notes,omitempty"`
}

func (r *report) add(name, unit string, v float64) { r.addN(name, unit, v, 0) }

func (r *report) addN(name, unit string, v float64, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Samples: samples})
}

// metricNote records a metric with an explanatory note.
func (r *report) metricNote(name, unit string, v float64, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// addLatency records the median and p99 of latencies xs (ms), and
// notes the highest percentile with at least minBeyond samples beyond
// it when that is not p99.
func (r *report) addLatency(p50Name, p99Name string, xs []float64) {
	d := summarize(xs)
	p99 := quantile(xs, 0.99)
	r.addN(p50Name, "ms", d.P50, d.N)
	r.addN(p99Name, "ms", p99, d.N)
	switch {
	case d.TailQ == 0:
		r.note("%s: no percentile has %d of the %d samples beyond it", p99Name, minBeyond, d.N)
	case d.TailQ != 0.99:
		r.note("%s: the highest percentile with %d samples beyond it is p%g = %.4g ms (n=%d)", p99Name, minBeyond, 100*d.TailQ, d.Tail, d.N)
	}
}

// addDur records a duration in seconds.
func (r *report) addDur(name string, d time.Duration) { r.add(name, "s", d.Seconds()) }

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// check counts one attempted operation and records why it failed, if
// it did.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkErrs counts one attempted operation that failed if errs is
// non-empty.
func (r *report) checkErrs(what string, errs []string) {
	r.check(len(errs) == 0, "%s: %s", what, strings.Join(errs, "; "))
}

func (r *report) lookup(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// contractLine builds the last output line: exactly the named metrics.
// A missing or non-finite metric is a benchmark bug, reported as an
// error.
func (r *report) contractLine(names []string) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, n := range names {
		m, ok := r.lookup(n)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, m.Value)
		}
		out.Metrics[n] = value{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(out)
}

// text renders the human-readable report: provenance, every metric by
// name with its unit, and the output checks.
func (r *report) text() string {
	var w strings.Builder
	p := r.Provenance
	fmt.Fprintf(&w, "# workload=%s seed=%d traced=%t run_seconds=%d\n", p.Workload, p.Seed, p.Traced, p.RunSeconds)
	fmt.Fprintf(&w, "# scale: %s\n", p.Scale)
	fmt.Fprintf(&w, "# GOMAXPROCS=%d nproc=%d %s git=%s\n", p.GOMAXPROCS, p.NumCPU, p.GoVersion, p.GitSHA)
	ms := append([]metric(nil), r.Metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for _, m := range ms {
		line := fmt.Sprintf("%-36s %14s %s", m.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf("  (n=%d)", m.Samples)
		}
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(&w, line)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(&w, "# "+n)
	}
	fmt.Fprintf(&w, "# checks: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(&w, "# FAILED: "+f)
	}
	return w.String()
}

// writeJSON saves the full report.
func (r *report) writeJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's measured resident-set high-water mark
// (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resetPeakRSS sets the process's RSS high-water mark back to its
// current RSS (clear_refs code 5), after returning freed memory to the
// OS, so the next VmHWM read measures one operation's own peak.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// newProvenance fills the machine-dependent fields.
func newProvenance(workload string, seed uint64, scale string, traced bool, runSeconds int, gitSHA string) provenance {
	return provenance{
		Workload: workload, Seed: seed, Scale: scale,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GitSHA: gitSHA,
		Traced: traced, RunSeconds: runSeconds,
	}
}
