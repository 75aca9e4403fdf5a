package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"cosplit/internal/workload"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		v, ok := quantile(xs(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("quantile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
		if ok {
			_, beyond := rank(c.n, c.q)
			if beyond < minBeyond {
				t.Errorf("%d samples at %v: %d beyond", c.n, c.q, beyond)
			}
		}
	}

	// A per-layer tail falls back to the highest percentile that has
	// ten samples beyond it.
	v, used, ok := tailQuantile(xs(400), 0.99)
	if !ok || used != 0.975 || v != 390 {
		t.Errorf("tailQuantile(400 samples, 0.99) = %v at %v, %v; want 390 at 0.975", v, used, ok)
	}
	if _, _, ok := tailQuantile(xs(19), 0.99); ok {
		t.Error("tailQuantile reported a percentile from 19 samples")
	}
}

func TestSpanSelfTimes(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "epoch", parent: noSpan, start: 0, end: msec(100)},
		{name: "a", parent: 0, start: msec(10), end: msec(40)},
		{name: "b", parent: 0, start: msec(30), end: msec(60)}, // overlaps a
		{name: "c", parent: 0, start: msec(70), end: msec(80)},
		{name: "a.child", parent: 1, start: msec(15), end: msec(20)},
		{name: "a.child", parent: 1, start: msec(35), end: msec(50)}, // runs past a
	}
	tree := buildTree(spans)
	for i, want := range []int{40, 20, 30, 10, 5, 15} {
		if got := tree.self[i]; got != msec(want) {
			t.Errorf("self(%s #%d) = %v, want %v ms", spans[i].name, i, got, want)
		}
	}
	by := tree.selfByName(0)
	if by["a"] != msec(20) || by["a.child"] != msec(20) || by["b"] != msec(30) {
		t.Errorf("selfByName = %v", by)
	}
	if d := tree.childDurations(0, "a.child"); len(d) != 2 || d[0] != msec(5) {
		t.Errorf("childDurations = %v", d)
	}

	// 40 of 100 ms untimed is far over the tolerance; the check names
	// the longest gap by its neighbours.
	worst, problems := tree.coverage("epoch")
	if worst != 0.4 || len(problems) != 1 {
		t.Fatalf("coverage = %v, %v", worst, problems)
	}
	if !strings.Contains(problems[0], "20.000 ms between c and end") {
		t.Errorf("coverage problem %q does not name the gap", problems[0])
	}

	// A fully covered root passes.
	covered := buildTree([]span{
		{name: "tick", parent: noSpan, start: 0, end: msec(10)},
		{name: "node.tick", parent: 0, start: 0, end: msec(4)},
		{name: "node.visible", parent: 0, start: msec(4), end: msec(10)},
	})
	if worst, problems := covered.coverage("tick"); worst != 0 || problems != nil {
		t.Errorf("covered root: %v, %v", worst, problems)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noSpan)
	tr.end(id)
	tr.add("y", id, time.Now(), time.Now())
	if id != noSpan || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

// nameRE is the form BENCHMARK.json requires of every metric and
// workload name.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(s string) bool { return nameRE.MatchString(s) }

func TestNames(t *testing.T) {
	names := []string{clusterWorkload}
	for name := range specs {
		names = append(names, name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, d.name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !validName(n) {
			t.Errorf("invalid name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"", "_x", "has space", "a/b", "ü", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// smallSpec shrinks a pipeline workload to a smoke run of two rounds
// of two small epochs.
func smallSpec(name string) *pipelineSpec {
	s := *specs[name]
	base := s.workload
	s.workload = func(seed int64) *workload.Workload {
		w := base(seed)
		if w.Users > 1000 {
			w.Users = 1000
		}
		if w.SetupSize > 0 {
			w.SetupSize = 1000
		}
		return w
	}
	s.txsPerEpoch, s.readsPerEpoch, s.rounds, s.epochsPerSecond = 100, 10, 2, 4
	if s.durable {
		s.snapshotEvery = 2
	}
	if s.pagedBudget > 0 {
		s.pagedBudget = 64 << 10
	}
	return &s
}

func TestSmokePipelines(t *testing.T) {
	if testing.Short() {
		t.Skip("provisions networks")
	}
	rootsFile = filepath.Join(t.TempDir(), "roots.json")
	for _, name := range []string{"ft-hot", "ft-wide", "ud-paged"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				cfg := runConfig{workload: name, seed: 3, seconds: 1, trace: trace, workDir: t.TempDir()}
				ck := &checks{}
				spec := smallSpec(name)
				res, err := runPipeline(spec, cfg, ck)
				if err != nil {
					t.Fatal(err)
				}
				// A second run of the same seed (traced or not) must end
				// at the root the first one recorded.
				ck.root(cfg, res)
				if !ck.valid() {
					t.Fatalf("checks failed: %v", ck.problems)
				}
				if res.attempted != spec.rounds*spec.epochs(cfg.seconds)*spec.txsPerEpoch || res.failed != 0 {
					t.Errorf("attempted %d failed %d", res.attempted, res.failed)
				}
				for _, d := range endToEnd {
					if _, ok := res.endToEnd[d.name]; !ok {
						t.Errorf("end-to-end metric %s missing", d.name)
					}
				}
				if !trace {
					return
				}
				for _, d := range perLayer {
					layer := d.name[:strings.Index(d.name, ".")]
					want := map[string]bool{
						"mempool": true, "dispatch": true, "shard": true, "wire": true, "trace": true, "runtime": true,
						"store": spec.durable, "pager": spec.pagedBudget > 0,
					}[layer]
					if _, ok := res.perLayer[d.name]; ok != want {
						t.Errorf("per-layer metric %s: present %v, want %v", d.name, ok, want)
					}
				}
			})
		}
	}
}

func TestRootRecordCatchesDivergence(t *testing.T) {
	rootsFile = filepath.Join(t.TempDir(), "roots.json")
	cfg := runConfig{workload: "ft-hot", seed: 1}
	res := newResult(&checks{})
	res.params = map[string]any{"epochs_per_round": 2}
	res.root = "aa"
	ck := &checks{}
	ck.root(cfg, res)
	ck.root(cfg, res)
	if !ck.valid() {
		t.Fatalf("same root flagged: %v", ck.problems)
	}
	res.root = "bb"
	ck.root(cfg, res)
	if ck.valid() {
		t.Fatal("a different final root for the same seed passed")
	}
}

func TestSmokeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("starts clusters")
	}
	for _, trace := range []bool{false, true} {
		cfg := runConfig{workload: clusterWorkload, seed: 2, seconds: 0.2, trace: trace, workDir: t.TempDir()}
		ck := &checks{}
		res, err := runCluster(cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		if !ck.valid() {
			t.Fatalf("checks failed: %v", ck.problems)
		}
		if res.attempted != 160 || res.failed != 0 || res.root == "" {
			t.Errorf("attempted %d failed %d root %q", res.attempted, res.failed, res.root)
		}
		if trace {
			if _, ok := res.perLayer["node.tick_ms_p50"]; !ok {
				t.Error("traced run has no node.tick_ms_p50")
			}
		} else if res.endToEnd["commit_tps"].Value <= 0 {
			t.Errorf("commit_tps %v", res.endToEnd["commit_tps"])
		}
	}
}

// TestBenchmarkJSONMatches keeps the metric lists the benchmark prints
// and BENCHMARK.json in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bench.Workloads {
		workloads = append(workloads, w.Name)
		if _, ok := specs[w.Name]; !ok && w.Name != clusterWorkload {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(workloads) != len(specs)+1 {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark has %d", workloads, len(specs)+1)
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s %d: benchmark %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bench.EndToEnd)
	same("per_layer", perLayer, bench.PerLayer)
}
