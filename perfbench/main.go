// Command perfbench is the fivealarms benchmark. It runs one workload
// through the public Study API, the internal layer entry points and the
// serve.Server, checks every output, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separate traced run. See README.md for the workloads and metrics.
//
// From the repository root, python3 perfbench/run.py builds and runs it;
// by hand:
//
//	(cd perfbench && go build -o ../.bench_build/perfbench .)
//	.bench_build/perfbench -workload study-default -seed 1 -seconds 50 -trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fivealarms"
)

// studySetups is how many times a study workload builds the Study
// before its measured cold studies; each of those builds the Study
// again, and setup_s is the median of all the builds. serve-read sets
// up by bringing a server up, throughout its run (bringUpPct).
const studySetups = 5

// minMeasured is the fewest measured cold studies a run reports a
// median of, even when they overrun -seconds; a traced run needs
// minTracedEach traced and as many untraced ones.
const (
	minMeasured   = 3
	minTracedEach = 2
)

// workloads maps each workload to its study configuration. The seed
// becomes Config.Seed.
var workloads = map[string]func(seed uint64) fivealarms.Config{
	// The default Config: the fire simulator dominates.
	"study-default": func(seed uint64) fivealarms.Config { return fivealarms.Config{Seed: seed} },
	// Many transceivers, few fires, sharded: the fleet-axis layers
	// dominate.
	"study-fleet": func(seed uint64) fivealarms.Config {
		return fivealarms.Config{Seed: seed, CellSizeM: 10_000, Transceivers: 1_000_000, MappedFiresPerSeason: 4, Shards: 4}
	},
	// The default Config behind the server.
	"serve-read": func(seed uint64) fivealarms.Config { return fivealarms.Config{Seed: seed} },
}

// selfTimeRows is how many span names, by self time, a traced run's
// report lists.
const selfTimeRows = 15

// options are the command-line settings of one run.
type options struct {
	workload    string
	seed        uint64
	seconds     int
	trace       int
	traced      bool
	out         string
	gitSHA      string
	writeGolden string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "study-default, study-fleet or serve-read")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed: the study's Config.Seed and the read mix's seed")
	flag.IntVar(&o.seconds, "seconds", 50, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs traced and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the full report and the Chrome trace")
	flag.StringVar(&o.gitSHA, "git-sha", "unknown", "commit being measured, for provenance")
	flag.StringVar(&o.writeGolden, "write-golden", "", "record this run's product fingerprints into the given golden file")
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o.traced = o.trace == 1
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func (o options) validate() error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown -workload %q (want study-default, study-fleet or serve-read)", o.workload)
	}
	if o.seconds < 1 || o.seconds > 120 {
		return fmt.Errorf("-seconds %d outside [1, 120]", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	return nil
}

// run executes the workload, prints the report and the result line,
// and returns the exit code: 1 when an output check failed.
func run(o options) (int, error) {
	cfg := workloads[o.workload](o.seed)
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	golden, err := loadGolden()
	if err != nil {
		return 0, err
	}
	clk := newWallClock()
	var tr *tracer
	if o.traced {
		tr = newTracer(clk)
	}
	r := &report{Provenance: newProvenance(o.workload, o.seed, scale(cfg), o.traced, o.seconds, o.gitSHA)}
	b := &bench{o: o, cfg: cfg, clk: clk, tr: tr, r: r, golden: golden, dur: time.Duration(o.seconds) * time.Second}
	if o.workload == "serve-read" {
		err = b.serveRead(context.Background())
	} else {
		err = b.study(context.Background())
	}
	if err != nil {
		return 0, err
	}
	if r.Attempted > 0 {
		r.add("fail_ratio", "ratio", float64(r.Failed)/float64(r.Attempted))
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 0, fmt.Errorf("creating %s: %w", o.out, err)
	}
	stem := filepath.Join(o.out, fmt.Sprintf("perfbench-%s-seed%d-trace%d", o.workload, o.seed, o.trace))
	if o.traced {
		spans := tr.snapshot()
		if err := writeChromeTrace(stem+".trace.json", spans); err != nil {
			return 0, err
		}
		r.note("chrome trace: %s.trace.json", stem)
		for i, a := range selfByName(spans) {
			if i == selfTimeRows {
				break
			}
			r.note("self time %-32s n=%-6d total %9.4f s  self %9.4f s", a.Name, a.Count, a.Total.Seconds(), a.Self.Seconds())
		}
	}
	if err := r.writeJSON(stem + ".json"); err != nil {
		return 0, err
	}
	names := endToEnd
	if o.traced {
		names = perLayer
	}
	line, err := r.contractLine(names)
	if err != nil {
		return 0, err
	}
	fmt.Print(r.text())
	fmt.Println(string(line))
	if r.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// scale renders the study configuration for provenance.
func scale(c fivealarms.Config) string {
	return fmt.Sprintf("seed=%d cell=%gm transceivers=%d fires/season=%d shards=%d",
		c.Seed, c.CellSizeM, c.Transceivers, c.MappedFiresPerSeason, c.Shards)
}
