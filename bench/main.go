// Command bench is the repository's benchmark: four gvserve workloads
// measured end to end over loopback HTTP against the real binary, and a
// traced in-process replay that attributes the time to layers.
//
//	go run ./bench -seed 1                      # everything, as a report
//	go run ./bench -repeat 2                    # A/A: the same build twice
//	go run ./bench --workload read_large --seed 3 --seconds 12 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, one kind
// of run, and a single JSON object as the last line of standard output.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// outDir receives span files, the report and per-run scratch directories.
const outDir = "bench/out"

// buildDir receives the gvserve binary the benchmark builds.
const buildDir = ".bench_build"

func numCPU() int { return runtime.NumCPU() }

// spec mirrors BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// buildServer compiles cmd/gvserve from the checkout's sources.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "gvserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gvserve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/gvserve: %w", err)
	}
	return bin, nil
}

// scratch creates an empty per-run directory under outDir.
func scratch(name string) (string, error) {
	dir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("run-%s-%d", name, os.Getpid())))
	if err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// leftovers fails loudly when a run did not clean up after itself.
func leftovers() error {
	var errs []error
	if n := killAllChildren(); n > 0 {
		errs = append(errs, fmt.Errorf("%d gvserve child(ren) were still running at exit and had to be killed", n))
	}
	left, _ := filepath.Glob(filepath.Join(outDir, fmt.Sprintf("run-*-%d", os.Getpid())))
	if len(left) > 0 {
		errs = append(errs, fmt.Errorf("scratch directories left behind: %s", strings.Join(left, ", ")))
	}
	return errors.Join(errs...)
}

// bench holds what every mode needs.
type bench struct {
	seed    int64
	seconds float64
	bin     string
	report  Report
}

// untraced runs one workload against the gvserve binary.
func (b *bench) untraced(w Workload) (*Result, error) {
	dir, err := scratch(w.Name)
	if err != nil {
		return nil, err
	}
	res, err := runUntraced(w, b.seed, b.seconds, childLauncher{bin: b.bin, logDir: dir}, dir)
	if err != nil {
		if log, rerr := os.ReadFile(filepath.Join(dir, "gvserve.log")); rerr == nil && len(log) > 0 {
			fmt.Fprintf(os.Stderr, "bench: gvserve log of the failed run:\n%s", tailOf(string(log), 2000))
		}
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return res, err
}

// traced runs one workload's in-process replay and writes its span file.
func (b *bench) traced(w Workload) (*TraceResult, error) {
	dir, err := scratch(w.Name + "-trace")
	if err != nil {
		return nil, err
	}
	res, t, err := runTraced(w, b.seed, b.seconds, dir)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+w.Name+".json")
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s (%d beyond the cap dropped)\n", len(t.spans), path, t.dropped)
	return res, nil
}

func tailOf(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// driverLine prints the one JSON object the benchmark contract asks for.
func driverLine(metrics []Metric, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, make(map[string]value)}
	for _, m := range metrics {
		if !finite(m.Value) {
			return fmt.Errorf("metric %s has no finite value (%v)", m.Name, m.Value)
		}
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the data graph, the update edges and the request order")
		seconds  = flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0: untraced end-to-end run, 1: traced per-layer run; either prints one JSON result line and needs -workload (default: both, as a report)")
		repeat   = flag.Int("repeat", 1, "run the untraced set this many times on the same build and compare (A/A)")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	b := &bench{seed: *seed, seconds: *seconds}
	if b.seconds <= 0 {
		b.seconds = float64(sp.RunSeconds)
	}
	ws := workloads
	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		ws = []Workload{w}
	} else if *trace >= 0 {
		return fail(errors.New("-trace 0|1 needs -workload"))
	}
	if *trace > 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}

	// Whatever happens, no child and no scratch directory outlives us.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()
	defer func() {
		if err := leftovers(); err != nil {
			code = fail(err)
		}
	}()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	if *trace != 1 {
		if b.bin, err = buildServer(); err != nil {
			return fail(err)
		}
	}
	b.report.Meta = collectMeta(b.seed, b.seconds)

	if *trace >= 0 {
		var metrics []Metric
		var attempted, failed int
		if *trace == 0 {
			res, err := b.untraced(ws[0])
			if err != nil {
				return fail(err)
			}
			printResult(res)
			metrics, attempted, failed = res.Metrics, res.Attempted, res.Failed
		} else {
			res, err := b.traced(ws[0])
			if err != nil {
				return fail(err)
			}
			printTrace(res)
			metrics, attempted, failed = res.Metrics, res.Attempted, res.Failed
		}
		if err := driverLine(metrics, attempted, failed); err != nil {
			return fail(err)
		}
		return exitCode(failed)
	}

	failed := 0
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range ws {
			res, err := b.untraced(w)
			if err != nil {
				return fail(err)
			}
			printResult(res)
			b.report.Runs = append(b.report.Runs, res)
			failed += res.Failed
		}
	}
	for _, w := range ws {
		res, err := b.traced(w)
		if err != nil {
			return fail(err)
		}
		printTrace(res)
		if e2e := b.report.lastRun(w.Name); e2e != nil {
			printDerived(e2e, res)
		}
		b.report.Traces = append(b.report.Traces, res)
		failed += res.Failed
	}
	if *repeat > 1 && !b.report.printSpread(sp) {
		code = 1
	}
	if err := b.report.write(filepath.Join(outDir, "report.json")); err != nil {
		return fail(err)
	}
	return max(code, exitCode(failed))
}

func exitCode(failed int) int {
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d operation(s) failed or disagreed with the oracle\n", failed)
		return 1
	}
	return 0
}
