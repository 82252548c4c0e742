// Command e2ebench is the repository's benchmark: it times the Appro
// planner, the plan checks and the /v1/plan service end to end on seeded
// workloads, checks every output, and with --trace 1 times each layer by
// calling its public functions. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload serve-mix --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the benchmark and returns the exit code: 0 when every output
// checked out, 1 when any operation failed, 2 on bad arguments or when
// the run could not be set up.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames()+", or all (one after another)")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 40, "measured time per run")
		trace   = fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
		n       = fs.Int("n", 0, "override the workload's request count (smoke runs)")
		commit  = fs.String("commit", "unknown", "source commit recorded in the stamp")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		ws = []workload{w}
		if !ok {
			ws = nil
		}
	}
	if len(ws) == 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) || *n < 0 {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s or all), --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	code := 0
	for _, w := range ws {
		if *n > 0 {
			w.n, w.side = *n, sideFor(*n)
		}
		cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1}
		code = max(code, runOne(cfg, *commit, stdout, stderr))
	}
	return code
}

// runOne runs one workload, printing its stamp, its metric table and the
// result line last.
func runOne(cfg config, commit string, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "stamp %s\n", stamp(cfg, commit))
	res, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	printTable(stdout, cfg, res)
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "e2ebench: failure:", f)
	}
	line, err := resultLine(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	fmt.Fprintln(stdout, line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// stamp describes the machine, toolchain, source and inputs of a run.
func stamp(cfg config, commit string) string {
	w := cfg.w
	b, _ := json.Marshal(map[string]any{ // a map of plain values always marshals
		"workload":   w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"params":     map[string]any{"n": w.n, "k": w.k, "side_m": w.side, "gamma_m": 2.7, "speed_mps": 1, "instances": w.instances, "hot": w.hot, "fresh_share": w.freshShare, "clients": clients, "serve_requests": w.serveRequests},
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	})
	return string(b)
}

// cpuModel reads the first model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printTable writes one row per metric: name, unit, median, sample count
// and, for tail metrics, which percentile was reported.
func printTable(out io.Writer, cfg config, res *result) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(out, "%s metrics, workload %s, seed %d\n", mode, cfg.w.name, cfg.seed)
	fmt.Fprintf(out, "%-22s %-6s %14s %8s  %s\n", "metric", "unit", "median", "samples", "note")
	for _, m := range res.metrics {
		fmt.Fprintf(out, "%-22s %-6s %14.6g %8d  %s\n", m.def.name, m.def.unit, m.value, m.samples, m.note)
	}
	ratio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(out, "%-22s %-6s %14.6g %8d  %d failed\n", failRatio, "ratio", ratio, res.attempted, res.failed)
}

// resultLine is the final JSON line.
func resultLine(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range res.metrics {
		metrics[m.def.name] = value{m.value, m.def.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return string(b), nil
}
