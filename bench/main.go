// Command bench is the repository's one end-to-end benchmark: it builds
// and spawns the real cmd/wtserve on loopback, drives it with one of
// four seeded closed-loop workloads, checks every reply against a flat
// oracle, and prints every metric by name and unit. With -trace 1 it
// runs the traced pass and the layer ladder and prints the per-layer
// metrics instead. BENCHMARK.json at the repository root declares what
// it measures; README.md in this directory says why.
//
// Usage (from the repository root):
//
//	go run -C bench . -workload point_read -seed 1
//	go run -C bench . -workload all -trace 1 -out .bench_build/out
//	go run -C bench . -compare before.json after.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// warmupTime precedes every timed phase with the same mix, untimed, so
// connections, the result cache and lazily built state are warm.
const warmupTime = 1500 * time.Millisecond

// setupRepeats is how often set-up runs per invocation; setup_s is the
// median, so one slow disk flush does not decide it.
const setupRepeats = 3

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "all", "workload to run: ingest, point_read, prefix_scan, mixed or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
	out := flag.String("out", "", "directory for the result record and span file (default: none; .bench_build/out when tracing)")
	compare := flag.Bool("compare", false, "compare result records: -compare A.json[,A2.json…] B.json[,B2.json…]")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	man, err := loadManifest(root)
	if err == nil {
		err = checkManifest(man)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two arguments, each a comma-separated list of result files")
			return 2
		}
		return compareFiles(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
	}
	if flag.NArg() != 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	specs := workloads
	if *workload != "all" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		specs = []*workloadSpec{w}
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}

	trapSignals()
	defer cleanup.run()
	sc, err := newScratch(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := sc.buildServer(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out == "" && *trace == 1 {
		*out = filepath.Join(sc.build, "out")
	} else if *out != "" && !filepath.IsAbs(*out) {
		*out = filepath.Join(root, *out) // the go command runs us inside bench/
	}

	code := 0
	for _, spec := range specs {
		rc := &runConfig{spec: spec, seed: *seed, timed: time.Duration(*seconds * float64(time.Second)),
			warmup: warmupTime, setups: setupRepeats, trace: *trace == 1, sz: pinned, outDir: *out,
			mkdir: sc.mkdir, launch: sc.launch, scratch: sc}
		if rc.trace {
			rc.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
		}
		rec, err := run(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
			dumpServerLogs(sc)
			return 1
		}
		report(os.Stdout, rec)
		if !rec.Correct {
			code = 1
			dumpServerLogs(sc)
		}
	}
	return code
}

// findRoot walks up from the working directory to the checkout root,
// the directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// dumpServerLogs prints every captured wtserve stderr of this run.
func dumpServerLogs(sc *scratch) {
	files, _ := filepath.Glob(filepath.Join(sc.runDir, "wtserve-stderr-*"))
	for _, f := range files {
		if b, err := os.ReadFile(f); err == nil && len(b) > 0 {
			fmt.Fprintf(os.Stderr, "--- %s ---\n%s", filepath.Base(f), b)
		}
	}
}

// environment is what a reader needs to judge whether two records are
// comparable.
type environment struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	Kernel      string `json:"kernel"`
	NumCPU      int    `json:"nproc"`
	ClientProcs int    `json:"client_gomaxprocs"`
	ServerProcs int    `json:"server_gomaxprocs"`
	Clients     int    `json:"clients"`
}

func describeEnv(rc *runConfig) environment {
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), Kernel: "unknown",
		NumCPU: runtime.NumCPU(), ClientProcs: runtime.GOMAXPROCS(0), ServerProcs: pinnedProcs, Clients: clients}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if rc.scratch != nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = rc.scratch.root
		if b, err := cmd.Output(); err == nil {
			env.Commit = strings.TrimSpace(string(b))
		}
	}
	return env
}

// report prints a run for people — every metric by name and unit, the
// per-class round trips behind the pooled figures — and then, as the
// last line, the one JSON object the driver reads.
func report(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  timed %.1fs  attempted %d  failed %d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Seconds, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-44s %16.4f %s\n", name, m.Value, m.Unit)
	}
	if len(rec.Windows) > 1 {
		q1, q2, q3 := quartiles(rec.Windows)
		fmt.Fprintf(w, "  throughput over %d windows of %d ms: median %.1f, inter-quartile range %.1f, mean of the run %.1f\n",
			len(rec.Windows), rec.WindowMS, q2, q3-q1, rec.MeanOpsS)
	}
	classes := make([]string, 0, len(rec.Classes))
	for c := range rec.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		l := rec.Classes[c]
		fmt.Fprintf(w, "  class %-13s n %7d  p50 %9.1f us  iqr %8.1f us  p99 %9.1f us\n", c, l.N, l.P50us, l.IQRus, l.P99us)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}
