package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// instanceDigest is the SHA-256 of the instance JSON that
// `wrsn-plan -n 1200 -k 2 -seed 1 -dump-instance -` writes before its
// plan report.
const instanceDigest = "24028f026a55bd38646cb55bb3be78d08ec58aacea82db5507484676c7934994"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestMetricNames(t *testing.T) {
	b := loadBenchmarkFile(t)
	names := []string{failRatio}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, d.name)
	}
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
	}
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the metrics and
// workloads the program reports, and every per-layer metric to an
// end-to-end metric and a workload that exist.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := loadBenchmarkFile(t)
	isWorkload := map[string]bool{}
	for _, bw := range b.Workloads {
		w, ok := findWorkload(bw.Name)
		if !ok || !w.gated || w.why != bw.Why {
			t.Errorf("BENCHMARK.json workload %q (%q) is not a gated program workload with that reason", bw.Name, bw.Why)
		}
		isWorkload[bw.Name] = true
	}
	for _, w := range workloads {
		if w.gated && !isWorkload[w.name] {
			t.Errorf("gated workload %q is missing from BENCHMARK.json", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	isEndToEnd := map[string]bool{failRatio: true}
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		isEndToEnd[d.name] = true
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if !isEndToEnd[d.target] || !isWorkload[d.workload] {
			t.Errorf("%s moves %q on %q: no such end-to-end metric or workload", d.name, d.target, d.workload)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "e2ebench" || len(b.Command) < 2 || !strings.HasPrefix(b.Command[1], "e2ebench/") {
		t.Errorf("command %q and paths %q should run this directory's run.sh", b.Command, b.Paths)
	}
}

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 99, 10},
		{2271, 99, 22},
		{999, 90, 99},
		{100, 90, 10},
		{99, 75, 24},
		{40, 75, 10},
		{39, 50, 19},
		{20, 50, 10},
		{10, 50, 5},
		{1, 50, 0},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending, so the helper must sort
		}
		got := highestTail(xs)
		rank := tc.n - tc.beyond
		if got.P != tc.p || got.N != tc.n || got.Beyond != tc.beyond || got.Value != float64(rank) {
			t.Errorf("n=%d: got %+v, want p%g = %d with %d beyond", tc.n, got, tc.p, rank, tc.beyond)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if got := mean([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("mean %v", got)
	}
}

// TestInstanceDrawOrder pins the generator to wrsn-plan's instance bytes,
// so seed-1 workloads plan the instances behind the BENCH_* records.
func TestInstanceDrawOrder(t *testing.T) {
	sum := sha256.Sum256(encodeInstance(buildInstance(1200, 2, 1, 100)))
	if got := hex.EncodeToString(sum[:]); got != instanceDigest {
		t.Fatalf("instance digest %s, want %s", got, instanceDigest)
	}
}

// TestInstanceDigestIsWrsnPlans re-derives the pinned digest from the
// wrsn-plan binary itself.
func TestInstanceDigestIsWrsnPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/wrsn-plan")
	}
	out, err := exec.Command("go", "run", "repro/cmd/wrsn-plan", "-n", "1200", "-k", "2", "-seed", "1", "-dump-instance", "-").Output()
	if err != nil {
		t.Fatalf("wrsn-plan: %v", err)
	}
	end := bytes.Index(out, []byte("\n}\n"))
	if end < 0 {
		t.Fatalf("no instance JSON in wrsn-plan output")
	}
	sum := sha256.Sum256(out[:end+3])
	if got := hex.EncodeToString(sum[:]); got != instanceDigest {
		t.Fatalf("wrsn-plan instance digest %s, want %s", got, instanceDigest)
	}
}

// TestSmoke runs every workload at n=600 in both modes and checks the
// result line: correct, no failures, and exactly the metrics of the mode,
// each finite (and nonzero end to end).
func TestSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := cli([]string{"--workload", w.name, "--n", "600", "--seconds", "0.3", "--trace", trace, "--seed", "3"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("missing %s", name)
					case m.Unit != unit:
						t.Errorf("%s: unit %q, want %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: %v", name, m.Value)
					case trace == "0" && m.Value == 0:
						t.Errorf("%s is 0", name)
					}
				}
			})
		}
	}
}
