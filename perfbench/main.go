// Command perfbench is the repository's benchmark: it runs one named
// workload against the g-SUM estimators for a fixed number of seconds
// and prints every metric BENCHMARK.json declares, by name, with its
// unit and sample count. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// separate traced run reports the per-layer set. Run it from the
// repository root (see perfbench/README.md):
//
//	bash perfbench/run.sh --workload serial-uniform --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmarkFile is the part of BENCHMARK.json the harness reads: the
// workload names and the declared metrics with their units.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Where the harness reads its definition and settings and writes span
// dumps and checkpoint state, relative to the repository root.
const (
	benchmarkPath = "BENCHMARK.json"
	configPath    = "perfbench/config.json"
	outDir        = ".bench_out"
)

// config holds the benchmark settings that are data rather than code:
// the default seed, and the cluster's fixed open-loop rate (never
// derived from the code under test, so every commit is measured at the
// same offered load). config.json also records the held-out seed that
// later performance claims must be confirmed on.
type config struct {
	DefaultSeed  uint64  `json:"default_seed"`
	PhaseBRateUp float64 `json:"phase_b_rate_ups"`
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 0, "workload seed (default: config default_seed)")
	seconds := fs.Int("seconds", 0, "measurement seconds (default: BENCHMARK.json run_seconds)")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	var bf benchmarkFile
	if err := readJSON(benchmarkPath, &bf); err != nil {
		return err
	}
	var cfg config
	if err := readJSON(configPath, &cfg); err != nil {
		return err
	}
	if !seedSet {
		*seed = cfg.DefaultSeed
	}
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	w, err := lookupWorkload(*name, bf)
	if err != nil {
		return err
	}
	if cfg.PhaseBRateUp <= 0 {
		return fmt.Errorf("%s: phase_b_rate_ups must be positive", configPath)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	b := &bench{w: w, seed: *seed, cfg: cfg, rec: newRecorder(options(*seed).Eps)}
	dur := time.Duration(*seconds) * time.Second
	var got map[string]metric
	var want []declared
	if *traced == 0 {
		if err := w.loop(b, dur, nil); err != nil {
			return err
		}
		got, err = endToEnd(b.rec)
		want = bf.EndToEnd
	} else {
		got, err = tracedRun(b, dur)
		want = bf.PerLayer
	}
	if err != nil {
		for _, f := range b.rec.failures {
			fmt.Fprintln(os.Stderr, "FAILED:", f)
		}
		return err
	}
	return report(stdout, w.name, *seed, b.rec, got, want)
}

// metric is one reported value with its unit, the number of samples it
// summarizes, and a note (percentile actually used, ratio bases).
type metric struct {
	value float64
	unit  string
	n     int
	note  string
}

// report prints the human-readable table, then the JSON result line.
// Every declared metric must be produced with its declared unit, and
// nothing else may be: the benchmark definition and the harness cannot
// drift apart silently.
func report(stdout io.Writer, workload string, seed uint64, rec *recorder, got map[string]metric, want []declared) error {
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]out, len(want))
	names := make([]string, 0, len(want))
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", d.Name)
		}
		if m.unit != d.Unit {
			return fmt.Errorf("metric %s: measured in %s, declared as %s", d.Name, m.unit, d.Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", d.Name, m.value)
		}
		metrics[d.Name] = out{m.value, m.unit}
		names = append(names, d.Name)
	}
	for n := range got {
		if _, ok := metrics[n]; !ok {
			return fmt.Errorf("measured metric %s is not declared in BENCHMARK.json", n)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload %s, seed %d\nmetric\tvalue\tunit\tsamples\tnote\n", workload, seed)
	for _, n := range names {
		m := got[n]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\n", n, m.value, m.unit, m.n, m.note)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, f := range rec.failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{rec.failed == 0 && rec.attempted > 0, rec.attempted, rec.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
