package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Meta records the environment of a report.
type Meta struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	// Warning is set when the machine cannot run the clients and the
	// server side by side.
	Warning string `json:"warning,omitempty"`
}

// collectMeta captures the environment and prints it.
func collectMeta(seed int64, seconds float64) Meta {
	m := Meta{
		NumCPU: numCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds, Clients: numClients,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	if m.NumCPU < numClients {
		m.Warning = fmt.Sprintf("%d client connections on %d CPU(s): the load generator queues on itself, latencies include its own waiting", numClients, m.NumCPU)
	}
	fmt.Printf("_meta: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s seed=%d seconds=%g clients=%d\n",
		m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.CPUModel, m.Commit, m.Seed, m.Seconds, m.Clients)
	if m.Warning != "" {
		fmt.Printf("_meta: WARNING %s\n", m.Warning)
	}
	return m
}

// Report is everything one invocation measured (bench/out/report.json).
type Report struct {
	Meta   Meta           `json:"_meta"`
	Runs   []*Result      `json:"runs"`
	Traces []*TraceResult `json:"traces"`
}

// lastRun returns the latest untraced result of a workload.
func (r *Report) lastRun(workload string) *Result {
	for i := len(r.Runs) - 1; i >= 0; i-- {
		if r.Runs[i].Workload == workload {
			return r.Runs[i]
		}
	}
	return nil
}

func (r *Report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printMetric(m Metric) {
	line := fmt.Sprintf("  %-32s %14.4f %-6s", m.Name, m.Value, m.Unit)
	if m.N > 0 {
		line += fmt.Sprintf(" n=%d", m.N)
	}
	if m.Note != "" {
		line += " (" + m.Note + ")"
	}
	fmt.Println(line)
}

// printResult prints one untraced run.
func printResult(r *Result) {
	fmt.Printf("== %s: end to end, seed %d, %g s window ==\n", r.Workload, r.Seed, r.Seconds)
	for _, m := range r.Metrics {
		printMetric(m)
	}
	if r.DiskBytesPerUpdate > 0 {
		printMetric(Metric{Name: "disk_bytes_per_update", Value: r.DiskBytesPerUpdate, Unit: "B"})
	} else {
		fmt.Printf("  %-32s %14s\n", "disk_bytes_per_update", "n/a")
	}
	printMetric(Metric{Name: "failed_share", Value: float64(r.Failed) / float64(max(r.Attempted, 1)), Unit: "ratio",
		Note: fmt.Sprintf("%d of %d ops", r.Failed, r.Attempted)})
	fmt.Printf("  client CPU share %.3f of %d cores; server maintenance %.0f ns/batch\n", r.ClientCPUShare, numCPU(), r.MaintNsPerBatch)
	for _, p := range r.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

// printTrace prints one traced run: metrics, the per-span roll-up and
// how much of each root span its children explain.
func printTrace(r *TraceResult) {
	fmt.Printf("== %s: per layer (traced replay), seed %d ==\n", r.Workload, r.Seed)
	for _, m := range r.Metrics {
		printMetric(m)
	}
	fmt.Printf("  %-10s %-28s %8s %12s %12s\n", "layer", "span", "calls", "busy ms", "p50 us")
	for _, l := range r.Layers {
		fmt.Printf("  %-10s %-28s %8d %12.2f %12.1f\n", l.Layer, l.Span, l.Calls, l.BusyMs, l.P50Us)
	}
	for _, root := range []string{"serve.query_handler", "serve.update_handler", "serve.publish", "serve.recover"} {
		if c, ok := r.Coverage[root]; ok {
			fmt.Printf("  layer spans account for %.1f%% of %s time\n", 100*c, root)
		}
	}
	fmt.Printf("  %d ops replayed, %d failed\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

// printDerived prints the layer metrics that need both runs of a
// workload.
func printDerived(e2e *Result, tr *TraceResult) {
	p50 := findMetric(e2e.Metrics, "query_p50_ms")
	handler := findMetric(tr.Metrics, "serve.query_handler_ms")
	fmt.Printf("== %s: derived from both runs ==\n", e2e.Workload)
	printMetric(Metric{Name: "serve.http_overhead_ms", Value: p50.Value - handler.Value, Unit: "ms",
		Note: fmt.Sprintf("end-to-end p50 %.4f ms minus handler p50 %.4f ms", p50.Value, handler.Value)})
	printMetric(Metric{Name: "serve.lock_wait_share", Value: e2e.LockWaitShare, Unit: "ratio",
		Note: "share of /update samples slower than 3x their median, untraced run"})
}

// printSpread prints the A/A spread of every end-to-end metric over the
// repeated sets and reports whether all stayed within their bounds.
func (r *Report) printSpread(sp *spec) bool {
	bounds := make(map[string]float64)
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Println("== A/A spread: same build, same seed ==")
	ok := true
	for _, w := range workloads {
		var runs []*Result
		for _, run := range r.Runs {
			if run.Workload == w.Name {
				runs = append(runs, run)
			}
		}
		if len(runs) < 2 {
			continue
		}
		for i, m := range runs[0].Metrics {
			worst := 0.0
			for _, other := range runs[1:] {
				worst = max(worst, relDiff(m.Value, other.Metrics[i].Value))
			}
			verdict := "ok"
			if worst > bounds[m.Name] {
				verdict, ok = "OVER BOUND", false
			}
			fmt.Printf("  %-14s %-16s spread %6.3f bound %5.2f %s\n", w.Name, m.Name, worst, bounds[m.Name], verdict)
		}
	}
	return ok
}
