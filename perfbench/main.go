// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the public APIs of the workload, shard, store,
// node and rpc packages, times every call it makes into a layer, checks
// the outputs, and prints one JSON result as its last line of output.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload ft-hot --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cosplit/internal/workload"
)

// specs are the benchmark's workloads. The why of each is in
// BENCHMARK.json and perfbench/README.md.
var specs = map[string]*pipelineSpec{
	"ft-hot": {
		workload:        func(seed int64) *workload.Workload { return seeded(workload.FTTransfer(), seed) },
		shards:          4,
		txsPerEpoch:     4000,
		epochsPerSecond: 10,
		rounds:          4,
		readsPerEpoch:   1000,
	},
	"ft-wide": {
		workload: func(seed int64) *workload.Workload {
			w := seeded(workload.FTTransferDisjoint(), seed)
			w.Users = 50_000
			return w
		},
		shards:          4,
		txsPerEpoch:     4000,
		durable:         true,
		snapshotEvery:   8,
		epochsPerSecond: 2,
		rounds:          1,
		readsPerEpoch:   1000,
	},
	"ud-paged": {
		workload:    func(seed int64) *workload.Workload { return seeded(workload.UDConfig(), seed) },
		shards:      4,
		txsPerEpoch: 4000,
		durable:     true,
		pagedBudget: 8 << 20,
		// A paged flush is thousands of page-file fsyncs, so its time
		// follows the disk: flushing every fourth epoch gives seven
		// flush segments to take the median over at --seconds 15 (28
		// epochs), and 21 journal epochs for the store median.
		snapshotEvery:   4,
		epochsPerSecond: 1.87,
		rounds:          1,
		readsPerEpoch:   1000,
	},
}

// clusterWorkload is the name of the node/RPC workload.
const clusterWorkload = "cluster-rpc"

func seeded(w *workload.Workload, seed int64) *workload.Workload {
	w.Seed = seed
	return w
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds the run's state directories; it is inside the
	// checkout and removed per run.
	workDir string
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ft-hot, ft-wide, ud-paged or cluster-rpc")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics, 0 the end-to-end ones")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	cfg.trace = trace == 1
	base := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(base, 0o777); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fatal(err)
	}
	cfg.workDir = dir
	res, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if err := res.print(os.Stdout, cfg); err != nil {
		fatal(err)
	}
}

// run executes one workload.
func run(cfg runConfig) (*result, error) {
	ck := &checks{}
	if cfg.workload == clusterWorkload {
		return runCluster(cfg, ck)
	}
	spec, ok := specs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res, err := runPipeline(spec, cfg, ck)
	if err != nil {
		return nil, err
	}
	ck.root(cfg, res)
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// endToEnd and perLayer are every metric the benchmark prints, with
// its unit: a run with --trace 0 prints each endToEnd metric, a run
// with --trace 1 each perLayer one, on every workload.
var endToEnd = []metricDef{
	{"commit_tps", "tx/s"},
	{"epoch_ms_p50", "ms"},
	{"submit_commit_ms_p50", "ms"},
	{"submit_commit_ms_p99", "ms"},
	{"ack_ms_p50", "ms"},
	{"read_ms_p50", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"commit_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"mempool.admit_us_per_tx", "us"},
	{"dispatch.begin_ms", "ms"},
	{"shard.execute_max_ms", "ms"},
	{"shard.execute_sum_ms", "ms"},
	{"shard.finalize_self_ms", "ms"},
	{"shard.replica_apply_ms", "ms"},
	{"shard.delta_entries_per_tx", "count"},
	{"shard.deferred_ratio", "ratio"},
	{"store.commit_ms_p50", "ms"},
	{"store.commit_ms_max", "ms"},
	{"pager.faults_per_epoch", "count"},
	{"pager.evictions_per_epoch", "count"},
	{"pager.writebacks_per_epoch", "count"},
	{"pager.hit_ratio", "ratio"},
	{"wire.micro_block_bytes_per_tx", "bytes"},
	{"wire.final_block_bytes_per_tx", "bytes"},
	{"wire.encode_us_per_tx", "us"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"node.tick_ms_p50", "ms"},
	{"node.tick_ms_p99", "ms"},
	{"node.visible_lag_ms_p50", "ms"},
	{"node.txs_per_block", "count"},
	{"rpc.ack_ms_p99", "ms"},
	{"rpc.read_ms_p99", "ms"},
	{"workload.late_ms_p99", "ms"},
	{"trace.commit_tps", "tx/s"},
	{"trace.overhead_pct", "%"},
	{"trace.untimed_ratio_max", "ratio"},
}

type metricDef struct{ name, unit string }

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// e2eQuantile sets an end-to-end percentile and records its sample
// count. One without ten samples beyond it fails the run's checks.
func (r *result) e2eQuantile(name string, xs []float64, q float64, unit string) {
	r.samples[name] = len(xs)
	v, ok := quantile(xs, q)
	if !ok {
		r.checks.tooFew(name, len(xs), q)
	}
	r.endToEnd.set(name, v, unit)
}

// layerQuantile sets a per-layer percentile and records its sample
// count. When the run has too few samples for q it reports the highest
// percentile below q that has ten beyond it (the median at least), and
// the conditions line gives the quantile it used.
func (r *result) layerQuantile(name string, xs []float64, q float64, unit string) {
	r.samples[name] = len(xs)
	v, used, ok := tailQuantile(xs, q)
	if !ok {
		r.checks.tooFew(name, len(xs), 0.5)
	}
	if used != q {
		r.quantiles[name] = used
	}
	r.perLayer.set(name, v, unit)
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	endToEnd          metricSet
	perLayer          metricSet
	// samples and quantiles stamp each percentile with its sample
	// count and, where the tail rule moved it, the quantile used.
	samples   map[string]int
	quantiles map[string]float64
	params    map[string]any
	root      string
	checks    *checks
}

func newResult(ck *checks) *result {
	return &result{
		endToEnd: metricSet{}, perLayer: metricSet{},
		samples: map[string]int{}, quantiles: map[string]float64{},
		checks: ck,
	}
}

// print writes the conditions line and then the result line.
func (r *result) print(f *os.File, cfg runConfig) error {
	want, got := endToEnd, r.endToEnd
	if cfg.trace {
		want, got = perLayer, r.perLayer
	}
	out := metricSet{}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			// A layer the workload does not exercise reads zero; the
			// conditions line lists its sample count as zero.
			m = metric{0, d.unit}
			r.samples[d.name] = 0
		}
		out[d.name] = m
	}
	digest, err := sourceDigest(".")
	if err != nil {
		return err
	}
	cond := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"source_sha256": digest, "params": r.params, "samples": r.samples, "quantiles_used": r.quantiles,
		"state_root": r.root, "problems": r.checks.problems, "too_few_samples": r.checks.thin, "time": time.Now().UTC().Format(time.RFC3339),
	}
	enc := json.NewEncoder(f)
	for _, p := range append(r.checks.problems, r.checks.thin...) {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if err := enc.Encode(map[string]any{"conditions": cond}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct": r.checks.ok(), "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
}
