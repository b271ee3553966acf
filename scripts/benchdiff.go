// Command benchdiff is the CI performance regression gate: it parses
// `go test -bench` output, extracts the ns/op of every gated benchmark
// — the BenchmarkProcess* ingestion family (BenchmarkProcessRegistry
// included: the registry-dispatch ingest path), the BenchmarkWindow*
// sliding-window family, the BenchmarkOpen/BenchmarkSpecFingerprint
// registry layer, BenchmarkCheckpoint (the daemon's atomic
// checkpoint write, paid every -checkpoint-every interval by every
// running gsumd), and the BenchmarkDaemonIngest* transport family
// (in-process ceiling vs JSON vs binary /v1/stream; the stream entry
// is the acceptance gate keeping the wire transport within 2x of the
// no-wire apply path), and BenchmarkSweepCell (one serial smoke-matrix
// cell end to end, the unit of work `gsum sweep` fans out per process)
// — taking the MINIMUM across repeated -count runs, the
// least noisy statistic on shared CI runners — and compares against the
// committed baseline.
//
// # Usage
//
// Run the gated benchmark families and compare (what
// .github/workflows/ci.yml does on every push; benchdiff lives in
// scripts/, so `go run ./scripts` runs it from the repo root):
//
//	go test -run '^$' -bench '^Benchmark(Process|Window|Open|SpecFingerprint|Checkpoint|DaemonIngest|Sweep)' -benchtime 3x -count 3 . | tee bench.txt
//	go run ./scripts -baseline BENCH_baseline.json -current bench.txt
//
// Exit codes: 0 when every gated benchmark is within threshold, 1 on a
// regression (current ns/op > threshold × baseline, default 2x) or when
// a baseline entry has no matching result in the run (a gated benchmark
// was renamed or deleted without refreshing the baseline), 2 on usage or
// parse errors.
//
// # Warn-and-skip for missing baseline entries
//
// A benchmark present in the run but MISSING from the baseline —
// typically a freshly added benchmark — is warned about on stderr,
// printed as a SKIP line on stdout, and NOT gated. It is never silently
// passed: the gate cannot vouch for a number it has nothing to compare
// against, so the warning tells you to add the entry; the run still
// exits 0 so adding a benchmark does not break CI before its baseline
// lands. Sub-benchmarks gate individually under their full name (e.g.
// BenchmarkProcessWorkload/zipf).
//
// -prefix takes a comma-separated list of gated name prefixes (default
// "BenchmarkProcess,BenchmarkWindow,BenchmarkOpen,BenchmarkSpecFingerprint,BenchmarkCheckpoint,BenchmarkDaemonIngest,BenchmarkSweep,BenchmarkMetrics,BenchmarkHotpath,BenchmarkGFMulMod,BenchmarkLayer");
// results matching none of them are ignored entirely.
//
// Refresh the baseline after an intentional performance change (this
// rewrites every gated entry with the current run's minima):
//
//	go run ./scripts -current bench.txt -write BENCH_baseline.json
//
// To add entries for new benchmarks without disturbing committed ones
// (e.g. when old entries double as a before/after record), write to a
// temporary file and merge the new keys into BENCH_baseline.json by hand.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed BENCH_baseline.json layout.
type Baseline struct {
	Note       string             `json:"note,omitempty"`
	Benchmarks map[string]float64 `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line, e.g.
// "BenchmarkProcessSerial-8   	      16	  71491381 ns/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// hasAnyPrefix reports whether name starts with one of the prefixes.
func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// parseBench extracts name -> min ns/op for benchmarks matching any of
// the gated prefixes.
func parseBench(path string, prefixes []string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil || !hasAnyPrefix(m[1], prefixes) {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if prev, ok := out[m[1]]; !ok || ns < prev {
			out[m[1]] = ns
		}
	}
	return out, sc.Err()
}

func main() {
	os.Exit(run())
}

func run() int {
	current := flag.String("current", "", "path to `go test -bench` output")
	baselinePath := flag.String("baseline", "", "path to the committed baseline JSON")
	write := flag.String("write", "", "write a fresh baseline JSON to this path and exit")
	prefix := flag.String("prefix", "BenchmarkProcess,BenchmarkWindow,BenchmarkOpen,BenchmarkSpecFingerprint,BenchmarkCheckpoint,BenchmarkDaemonIngest,BenchmarkSweep,BenchmarkMetrics,BenchmarkHotpath,BenchmarkGFMulMod,BenchmarkLayer",
		"comma-separated benchmark name prefixes to gate")
	threshold := flag.Float64("threshold", 2.0, "fail when current > threshold * baseline")
	flag.Parse()

	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		return 2
	}
	prefixes := strings.Split(*prefix, ",")
	got, err := parseBench(*current, prefixes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		return 2
	}
	if len(got) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no %s* results in %s\n", *prefix, *current)
		return 2
	}

	if *write != "" {
		b := Baseline{
			Note:       "min ns/op per benchmark; refresh with scripts/benchdiff -write after intentional perf changes",
			Benchmarks: got,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*write, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			return 2
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(got), *write)
		return 0
	}

	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline or -write is required")
		return 2
	}
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: bad baseline %s: %v\n", *baselinePath, err)
		return 2
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	missing := 0
	for _, name := range names {
		cur := got[name]
		ref, ok := base.Benchmarks[name]
		if !ok || ref <= 0 {
			// Warn-and-skip, never silently pass: an ungated number is not a
			// passing number. The warning goes to stderr so it survives
			// stdout filtering in CI step summaries.
			missing++
			fmt.Printf("SKIP  %-34s %12.0f ns/op (no baseline entry)\n", name, cur)
			fmt.Fprintf(os.Stderr, "benchdiff: WARNING: %s has no entry in %s and was NOT gated; add it (see -write in the header comment)\n",
				name, *baselinePath)
			continue
		}
		ratio := cur / ref
		status := "ok   "
		if ratio > *threshold {
			status = "FAIL "
			failed = true
		}
		fmt.Printf("%s %-34s %12.0f ns/op vs baseline %12.0f (%.2fx, limit %.1fx)\n",
			status, name, cur, ref, ratio, *threshold)
	}
	for name := range base.Benchmarks {
		if _, ok := got[name]; !ok && hasAnyPrefix(name, prefixes) {
			fmt.Printf("GONE  %-34s present in baseline but not in this run\n", name)
			failed = true
		}
	}
	if failed {
		fmt.Println("benchdiff: performance regression gate FAILED")
		return 1
	}
	if missing > 0 {
		fmt.Printf("benchdiff: all gated benchmarks within threshold (%d new benchmark(s) skipped — see warnings)\n", missing)
		return 0
	}
	fmt.Println("benchdiff: all benchmarks within threshold")
	return 0
}
