package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/node"
	"cosplit/internal/rpc"
	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// The cluster-rpc workload: DS, three shard nodes and one lookup over
// loopback TCP, serving JSON-RPC on loopback. An open-loop generator
// offers opsPerSecond operations, one in readEvery a getBalance read and
// the rest FT transfers; a block is produced every blockInterval.
//
// The cluster keeps its state in memory. With ClusterStateDir every
// tick waits for the DS journal fsync, and on a shared virtual disk
// (fsync p50 0.5 ms, p90 2.3 ms, p99 11 ms, drifting over minutes) the
// median tick of a round moved between 2.8 and 7.3 ms within one run
// and submit_commit_ms_p99 by a third between sets of runs; in memory
// both hold within a few percent. ft-wide and ud-paged measure the
// store.
const (
	clusterShards   = 3
	opsPerSecond    = 800
	readEvery       = 5
	blockInterval   = 50 * time.Millisecond
	tickPhase       = time.Second / opsPerSecond / 2
	visibleDeadline = time.Second
	commitDeadline  = 20 * time.Second
	// clusterRounds splits the window over fresh clusters: how fast the
	// loopback transport serves a cluster varies from one cluster to
	// the next, so a run reports each percentile as its median over
	// the rounds.
	clusterRounds = 8
)

// op is one generated request.
type op struct {
	due, start, end time.Time
	read            bool
	id              uint64
	err             error
	traced          bool
}

// tick is one produced block as the producer saw it.
type tick struct {
	epoch      uint64
	start, end time.Time
	committed  int
	err        error
	traced     bool
	// visible is when chainInfo first showed the epoch (zero if it
	// never did within visibleDeadline).
	visible time.Time
}

// clusterRun accumulates one run's samples over its rounds.
type clusterRun struct {
	cfg    runConfig
	checks *checks
	tr     *tracer
	rng    *rand.Rand

	setups    []float64
	heaps     []float64
	ops       []op
	ticks     []tick
	committed int
	failed    int
	// rounds holds each round's percentiles by metric name; the run
	// reports their median over the rounds, and samples the per-round
	// sample counts.
	rounds  map[string][]float64
	samples map[string][]int
	// window sums each round's stretch from its first due operation to
	// its last committed transaction becoming visible.
	window time.Duration
	root   string
}

func clusterWorkloadFor(seed int64) *workload.Workload {
	return seeded(workload.FTTransfer(), seed)
}

// genesis provisions one cluster node's network.
func (cr *clusterRun) genesis() (*shard.Network, error) {
	env, err := workload.Provision(clusterWorkloadFor(cr.cfg.seed), true, shard.WithShards(clusterShards))
	if err != nil {
		return nil, err
	}
	return env.Net, nil
}

// runCluster runs the cluster-rpc workload.
func runCluster(cfg runConfig, ck *checks) (*result, error) {
	// Every role of the cluster runs in this one process. With two Ps
	// their hand-offs cross OS threads, and on a 2-CPU host the median
	// tick settled at either about 2.5 or about 4.2 ms for a whole run
	// (unsteady by 30% across runs); on one P it holds within a few
	// percent. The conditions line records the setting.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cr := &clusterRun{
		cfg: cfg, checks: ck, rng: rand.New(rand.NewSource(cfg.seed)),
		rounds: make(map[string][]float64), samples: make(map[string][]int),
	}
	if cfg.trace {
		cr.tr = newTracer()
	}
	total := int(cfg.seconds * opsPerSecond)
	gcBefore := readGCCPU()
	for i := 0; i < clusterRounds; i++ {
		if err := cr.round(total / clusterRounds); err != nil {
			return nil, err
		}
	}
	gcAfter := readGCCPU()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()

	res := newResult(ck)
	res.params = map[string]any{
		"shards": clusterShards, "lookups": 1, "transport": "tcp loopback", "ops_per_second": opsPerSecond,
		"read_every": readEvery, "block_interval_ms": ms(blockInterval), "tick_phase_ms": ms(tickPhase),
		"rounds": clusterRounds, "ops": len(cr.ops), "gomaxprocs": runtime.GOMAXPROCS(0), "library_workload": "FT transfer", "durable": false,
		"setup_s_samples": cr.setups, "per_round": cr.rounds, "per_round_samples": cr.samples,
	}
	res.root = cr.root
	res.attempted, res.failed = len(cr.ops), cr.failed

	e2e := res.endToEnd
	e2e.set("commit_tps", ratio(float64(cr.committed), cr.window.Seconds()), "tx/s")
	for _, name := range []string{"epoch_ms_p50", "submit_commit_ms_p50", "submit_commit_ms_p99", "ack_ms_p50", "read_ms_p50"} {
		e2e.set(name, median(cr.rounds[name]), "ms")
		n := 0
		for _, k := range cr.samples[name] {
			n += k
		}
		res.samples[name] = n
	}
	e2e.set("commit_ratio", ratio(float64(res.attempted-res.failed), float64(res.attempted)), "ratio")
	e2e.set("setup_s", median(cr.setups), "s")
	e2e.set("heap_mb", median(cr.heaps), "MB")

	if cr.tr != nil {
		res.perLayer.set("runtime.gc_cpu_fraction", gcAfter.fraction(gcBefore), "ratio")
		cr.layers(res, e2e["commit_tps"].Value)
	}
	return res, nil
}

// round starts a cluster (its set-up is one setup_s sample), offers
// ops operations, waits for their receipts and checks the cluster's
// root.
func (cr *clusterRun) round(ops int) error {
	t0 := time.Now()
	c, err := node.NewCluster(cr.genesis, node.ClusterTCP("127.0.0.1:0"))
	if err != nil {
		return fmt.Errorf("start cluster: %w", err)
	}
	defer c.Close()
	env, err := workload.Provision(clusterWorkloadFor(cr.cfg.seed), true, shard.WithShards(clusterShards))
	if err != nil {
		return fmt.Errorf("client genesis: %w", err)
	}
	w := clusterWorkloadFor(cr.cfg.seed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: rpc.NewServer(c.Lookup)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	url := "http://" + ln.Addr().String()
	// One client sends and reads, the other polls chainInfo: each is
	// used by one goroutine, so each keeps one connection.
	sender, poller := rpc.NewClient(url), rpc.NewClient(url)
	cr.setups = append(cr.setups, time.Since(t0).Seconds())

	// Producer: one Cluster.Tick every blockInterval, like
	// Cluster.Produce, but timed and phase-locked to the generator's
	// schedule: a tick is due tickPhase after an operation, so every
	// run overlaps its ticks with the same operations. After each tick
	// it polls chainInfo on its own connection until the lookup shows
	// the epoch; polling only then keeps the poller from competing
	// with the requests it measures.
	var ticks []tick
	stopProducer := make(chan struct{})
	producerDone := make(chan struct{})
	begin := time.Now().Add(20 * time.Millisecond)
	go func() {
		defer close(producerDone)
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		for n := 0; ; n++ {
			timer.Reset(time.Until(begin.Add(time.Duration(n)*blockInterval + tickPhase)))
			select {
			case <-timer.C:
			case <-stopProducer:
				return
			}
			ticks = append(ticks, produce(c, poller, cr.tr, n))
		}
	}()
	stopped := false
	stop := func() {
		if !stopped {
			close(stopProducer)
			<-producerDone
			stopped = true
		}
	}
	defer stop()

	round := cr.generate(sender, env, w, begin, ops)

	// Wait until every accepted transaction's receipt is at the lookup,
	// then stop producing.
	deadline := time.Now().Add(commitDeadline)
	for _, o := range round {
		if o.read || o.err != nil {
			continue
		}
		if c.Lookup.WaitReceipt(o.id, time.Until(deadline)) == nil {
			break
		}
	}
	// The producer records the last epoch's visibility before it waits
	// for the next tick; one more interval covers it.
	time.Sleep(2 * blockInterval)
	stop()
	cr.heaps = append(cr.heaps, liveHeapMB())

	latencies, err := cr.settle(sender, round, ticks, begin)
	if err != nil {
		return err
	}
	cr.ops = append(cr.ops, round...)
	cr.ticks = append(cr.ticks, ticks...)
	var acks, reads, tickMS []float64
	for _, o := range round {
		switch {
		case o.err != nil:
		case o.read:
			reads = append(reads, ms(o.end.Sub(o.start)))
		default:
			acks = append(acks, ms(o.end.Sub(o.start)))
		}
	}
	for _, tk := range ticks {
		if tk.err == nil {
			tickMS = append(tickMS, ms(tk.end.Sub(tk.start)))
		}
	}
	cr.percentile("epoch_ms_p50", tickMS, 0.5)
	cr.percentile("submit_commit_ms_p50", latencies, 0.5)
	cr.percentile("submit_commit_ms_p99", latencies, 0.99)
	cr.percentile("ack_ms_p50", acks, 0.5)
	cr.percentile("read_ms_p50", reads, 0.5)
	return cr.checkRoot(c, sender)
}

// generate is the open-loop generator: operation i is due at begin +
// i/opsPerSecond whatever happened to the ones before it.
func (cr *clusterRun) generate(sender *rpc.Client, env *workload.Env, w *workload.Workload, begin time.Time, n int) []op {
	ops := make([]op, n)
	interval := time.Second / opsPerSecond
	for i := range ops {
		o := &ops[i]
		o.due = begin.Add(time.Duration(i) * interval)
		o.read = i%readEvery == readEvery-1
		o.traced = cr.tr != nil && i%2 == 0
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		var tx *chain.Tx
		if !o.read {
			tx = w.Next(env)
		}
		tr, name := cr.tr, "rpc.send"
		if !o.traced {
			tr = nil
		}
		if o.read {
			name = "rpc.read"
		}
		o.start = time.Now()
		if o.read {
			var bal *rpc.BalanceResult
			bal, o.err = sender.GetBalance(env.Users[cr.rng.Intn(len(env.Users))])
			if o.err == nil && !bal.Found {
				o.err = errors.New("funded account not found")
			}
		} else {
			o.id, o.err = sender.SendTx(tx)
		}
		o.end = time.Now()
		// The request's spans are recorded after it returns, from the
		// timestamps taken around the call, so recording adds nothing
		// to the round trip it measures.
		root := tr.add("op", noSpan, o.due, o.end)
		tr.add("workload.late", root, o.due, o.start)
		tr.add(name, root, o.start, o.end)
	}
	return ops
}

// settle fetches every sent transaction's receipt over RPC (untimed,
// after the window) and records its latency from its due time to its
// epoch becoming visible at the lookup.
func (cr *clusterRun) settle(sender *rpc.Client, ops []op, ticks []tick, begin time.Time) ([]float64, error) {
	visibleAt := make(map[uint64]time.Time)
	for _, tk := range ticks {
		if tk.err != nil {
			cr.checks.fail("tick: %v", tk.err)
		} else if !tk.visible.IsZero() {
			visibleAt[tk.epoch] = tk.visible
		}
	}
	var last time.Time
	var latencies []float64
	for _, o := range ops {
		if o.err != nil {
			cr.failed++
			continue
		}
		if o.read {
			continue
		}
		rc, err := sender.GetReceipt(o.id)
		if err != nil {
			return nil, fmt.Errorf("fetch receipt %d: %w", o.id, err)
		}
		if rc == nil {
			cr.failed++
			cr.checks.fail("transaction %d has no receipt", o.id)
			continue
		}
		if !rc.Success {
			cr.failed++
			continue
		}
		at, ok := visibleAt[rc.Epoch]
		if !ok {
			cr.checks.fail("transaction %d: epoch %d never seen at the lookup", o.id, rc.Epoch)
			continue
		}
		cr.committed++
		if at.After(last) {
			last = at
		}
		latencies = append(latencies, ms(at.Sub(o.due)))
	}
	cr.window += last.Sub(begin)
	return latencies, nil
}

// percentile records one round's q-quantile of xs under the quantile
// rule.
func (cr *clusterRun) percentile(name string, xs []float64, q float64) {
	v, ok := quantile(xs, q)
	if !ok {
		cr.checks.tooFew(name+" (one round)", len(xs), q)
	}
	cr.rounds[name] = append(cr.rounds[name], v)
	cr.samples[name] = append(cr.samples[name], len(xs))
}

// checkRoot requires the lookup's head to be the committee's root.
func (cr *clusterRun) checkRoot(c *node.Cluster, sender *rpc.Client) error {
	info, err := sender.ChainInfo()
	if err != nil {
		return fmt.Errorf("chainInfo: %w", err)
	}
	root := c.DS.Net().StateRoot()
	if info.StateRoot != root {
		cr.checks.fail("lookup root %s, committee root %s", info.StateRoot, root)
	}
	cr.root = root
	return nil
}

// produce drives one tick and waits until the lookup shows its epoch.
// A traced tick (every other one in a traced run) is a tick root span
// with two children: the Tick call and the visibility wait.
func produce(c *node.Cluster, poller *rpc.Client, tr *tracer, n int) tick {
	tk := tick{traced: tr != nil && n%2 == 0}
	if !tk.traced {
		tr = nil
	}
	root := tr.begin("tick", noSpan)
	sp := tr.begin("node.tick", root)
	tk.start = time.Now()
	res := c.Tick()
	tk.end, tk.err = time.Now(), res.Err
	tr.end(sp)
	if res.Err == nil {
		tk.epoch, tk.committed = res.Stats.Epoch, res.Stats.Committed
		sp = tr.begin("node.visible", root)
		for deadline := tk.end.Add(visibleDeadline); time.Now().Before(deadline); {
			info, err := poller.ChainInfo()
			if err == nil && info.StateRoot != "" && info.Epoch >= tk.epoch {
				tk.visible = time.Now()
				break
			}
		}
		tr.end(sp)
	}
	tr.end(root)
	return tk
}

// layers derives the node, rpc and workload metrics from the traced
// ticks and requests. A tick root spans the Cluster.Tick call and the
// wait until the lookup shows the epoch; a request root spans its
// lateness and its round trip.
func (cr *clusterRun) layers(res *result, commitTPS float64) {
	tree := buildTree(cr.tr.snapshot())
	worst := 0.0
	for _, name := range []string{"tick", "op"} {
		w, problems := tree.coverage(name)
		for _, p := range problems {
			res.checks.fail("trace coverage: %s", p)
		}
		worst = maxOf([]float64{worst, w})
	}
	pl := res.perLayer
	pl.set("trace.untimed_ratio_max", worst, "ratio")

	var tickMS, lag []float64
	for _, id := range tree.roots("tick") {
		self := tree.selfByName(id)
		tickMS = append(tickMS, ms(self["node.tick"]))
		lag = append(lag, ms(self["node.visible"]))
	}
	var txs, blocks float64
	for _, tk := range cr.ticks {
		if tk.traced && tk.err == nil {
			txs += float64(tk.committed)
			blocks++
		}
	}
	var late, acks, reads, untracedAcks []float64
	for _, id := range tree.roots("op") {
		self := tree.selfByName(id)
		late = append(late, ms(self["workload.late"]))
		if d, ok := self["rpc.send"]; ok {
			acks = append(acks, ms(d))
		}
		if d, ok := self["rpc.read"]; ok {
			reads = append(reads, ms(d))
		}
	}
	for _, o := range cr.ops {
		if !o.traced && !o.read && o.err == nil {
			untracedAcks = append(untracedAcks, ms(o.end.Sub(o.start)))
		}
	}
	res.layerQuantile("node.tick_ms_p50", tickMS, 0.5, "ms")
	res.layerQuantile("node.tick_ms_p99", tickMS, 0.99, "ms")
	res.layerQuantile("node.visible_lag_ms_p50", lag, 0.5, "ms")
	pl.set("node.txs_per_block", ratio(txs, blocks), "count")
	res.layerQuantile("rpc.ack_ms_p99", acks, 0.99, "ms")
	res.layerQuantile("rpc.read_ms_p99", reads, 0.99, "ms")
	res.layerQuantile("workload.late_ms_p99", late, 0.99, "ms")

	// Tracing overhead: every other request is traced; compare the
	// traced requests' median round trip with the untraced ones'. The
	// commit rate is fixed by the open loop, so it cannot show it.
	traced, _ := quantile(acks, 0.5)
	untraced, _ := quantile(untracedAcks, 0.5)
	pl.set("trace.commit_tps", commitTPS, "tx/s")
	pl.set("trace.overhead_pct", 100*ratio(traced-untraced, untraced), "%")
}
