package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/mempool"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// pipelineSpec is one workload driven through the DS committee's stage
// API in process: submit, BeginEpoch, ExecuteShard per shard,
// FinalizeEpoch, and ApplyFinalBlock on an in-memory replica.
type pipelineSpec struct {
	// workload builds the library workload for a seed.
	workload    func(seed int64) *workload.Workload
	shards      int
	txsPerEpoch int
	// durable attaches a store (store.Open + Recover) to the committee;
	// pagedBudget > 0 makes it paged with that cache budget.
	durable     bool
	pagedBudget int64
	// snapshotEvery is the store's snapshot (or paged flush) cadence;
	// a durable run's epoch count is a multiple of it, so every run
	// has the same number of flush epochs.
	snapshotEvery int
	// epochsPerSecond sizes the window: --seconds times this rate is
	// the run's epoch count, split over its rounds and rounded up to
	// whole snapshot cycles.
	// The work is fixed by the arguments, so two builds of the program
	// do the same epochs, end at the same root and retain the same
	// receipts; a faster build finishes sooner.
	epochsPerSecond float64
	// rounds repeats the window on fresh networks. Every receipt stays
	// live in its network, so a long single window would measure a
	// growing heap; rounds keep the heap at one round's size.
	rounds int
	// readsPerEpoch is how many getBalance-style account reads the
	// benchmark makes against the committee between epochs (one read per
	// four transactions, the cluster workload's mix).
	readsPerEpoch int
}

// epochs returns each round's epoch count for a run of the given
// length.
func (p *pipelineSpec) epochs(seconds float64) int {
	n := int(seconds*p.epochsPerSecond/float64(p.rounds) + 0.5)
	if n < 1 {
		n = 1
	}
	if p.durable && p.snapshotEvery > 0 {
		n = (n + p.snapshotEvery - 1) / p.snapshotEvery * p.snapshotEvery
	}
	return n
}

// netOptions are the committee's and every replica's options: the
// genesis must be identical for replica roots to match.
func (p *pipelineSpec) netOptions() []shard.Option {
	return []shard.Option{
		shard.WithShards(p.shards),
		shard.WithParallelism(true),
		shard.WithConsensusModel(false),
		shard.WithMempool(mempool.DefaultConfig()),
	}
}

// timedStore wraps the committee's store so each EpochCommitted call
// (journal append and fsync, plus the snapshot or paged flush on
// boundary epochs) is a store.commit span under shard.finalize.
type timedStore struct {
	inner  *store.Store
	tr     *tracer
	parent spanID
	// last is the duration of the most recent commit; snapshot tells
	// whether it was a boundary epoch.
	last     time.Duration
	snapshot bool
	every    uint64
}

func (s *timedStore) EpochCommitted(n *shard.Network, fb *shard.FinalBlock, cp shard.Checkpoint) error {
	id := s.tr.begin("store.commit", s.parent)
	t0 := time.Now()
	err := s.inner.EpochCommitted(n, fb, cp)
	s.last = time.Since(t0)
	s.snapshot = s.every > 0 && cp.Epoch%s.every == 0
	s.tr.end(id)
	return err
}

// epochRecord is what one epoch of the window produced.
type epochRecord struct {
	traced    bool
	wall      time.Duration
	committed int
	failed    int
	deferred  int
	deltas    int
	storeTime time.Duration
	snapshot  bool
	readTime  time.Duration
	reads     int
	submit    time.Duration
	submitted int
	// encode is the wire encoding of the epoch's blocks (traced epochs).
	mbBytes, fbBytes int
	encodeTime       time.Duration
}

// pipelineRun accumulates one run's samples over its rounds. A round
// is a fresh committee and replica driven for the round's epochs.
type pipelineRun struct {
	spec   *pipelineSpec
	seed   int64
	tr     *tracer
	reg    *obs.Registry
	rng    *rand.Rand
	checks *checks

	setups      []time.Duration
	storeSetups []time.Duration
	records     []epochRecord
	latencies   []float64
	// segLatencies holds the latencies of each segment's transactions.
	segLatencies [][]float64
	attempted    int
	failed       int
	roots        []string
	// heaps is the live heap at the end of each round, with the
	// round's networks still reachable.
	heaps []float64
	// pager sums the pager counters' growth over every window.
	pager map[string]int64
}

// round holds one round's networks and per-transaction records.
type round struct {
	*pipelineRun
	dir string
	env *workload.Env
	w   *workload.Workload
	net *shard.Network
	rep *shard.Network
	st  *timedStore

	// Per transaction: when it was submitted and its id (0 when refused).
	submitAt []time.Time
	segment  []int
	ids      []uint64
	refused  int
	// applied maps an epoch number to the moment its block was applied
	// at the replica.
	applied map[uint64]time.Time
}

// runPipeline runs one pipeline workload and returns its result.
func runPipeline(spec *pipelineSpec, cfg runConfig, ck *checks) (*result, error) {
	r := &pipelineRun{
		spec: spec, seed: cfg.seed, checks: ck,
		rng:   rand.New(rand.NewSource(cfg.seed)),
		reg:   obs.NewRegistry(),
		pager: make(map[string]int64),
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	epochs := spec.epochs(cfg.seconds)
	gcBefore := readGCCPU()
	for i := 0; i < spec.rounds && ck.valid(); i++ {
		if err := r.round(cfg.workDir, epochs); err != nil {
			return nil, err
		}
	}
	gcAfter := readGCCPU()
	for _, root := range r.roots[1:] {
		if root != r.roots[0] {
			ck.fail("rounds ended at different roots: %v", r.roots)
			break
		}
	}

	res := r.report(epochs)
	res.endToEnd.set("heap_mb", median(r.heaps), "MB")
	res.endToEnd.set("setup_s", r.setupSeconds(), "s")
	res.root = r.roots[0]
	if r.tr != nil {
		r.layers(res)
		res.perLayer.set("runtime.gc_cpu_fraction", gcAfter.fraction(gcBefore), "ratio")
		if spec.pagedBudget > 0 {
			r.pagerMetrics(res, epochs*spec.rounds)
		}
	}
	return res, nil
}

// round sets up a committee and a replica, drives the window's epochs
// and any drain epochs, checks every receipt, and checks that the
// committee's directory restores to its root.
func (r *pipelineRun) round(workDir string, epochs int) error {
	dir, err := os.MkdirTemp(workDir, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rd := &round{pipelineRun: r, dir: dir, applied: make(map[uint64]time.Time)}
	if err := rd.setup(); err != nil {
		return err
	}
	if rd.st != nil {
		defer rd.st.inner.Close()
	}
	before := r.reg.Snapshot()
	for e := 0; e < epochs && r.checks.valid(); e++ {
		// In a traced run every other epoch is traced; the untraced
		// ones give the tracing overhead on the same state.
		traced := r.tr != nil && e%2 == 0
		if err := rd.epoch(rd.batch(), traced, true); err != nil {
			return err
		}
	}
	// Transactions deferred past the window's last epoch commit in
	// drain epochs; their latency counts, their epochs do not.
	for i := 0; rd.net.MempoolSize() > 0 && r.checks.valid(); i++ {
		if i == 16 {
			r.checks.fail("mempool still holds %d transactions after 16 drain epochs", rd.net.MempoolSize())
			break
		}
		if err := rd.epoch(nil, false, false); err != nil {
			return err
		}
	}
	after := r.reg.Snapshot()
	for name, v := range after.Counters {
		r.pager[name] += v - before.Counters[name]
	}
	rd.receipts()
	r.heaps = append(r.heaps, liveHeapMB())
	runtime.KeepAlive(rd)
	if err := rd.restoreCheck(); err != nil {
		return err
	}
	r.roots = append(r.roots, rd.net.StateRoot())
	if rd.st != nil {
		if err := rd.st.inner.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
	}
	return nil
}

// provision builds one genesis network for the run's workload.
func (r *pipelineRun) provision(w *workload.Workload) (*workload.Env, error) {
	t0 := time.Now()
	env, err := workload.Provision(w, true, r.spec.netOptions()...)
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0))
	return env, nil
}

// setup provisions the committee (and opens and recovers its store)
// and the replica.
func (rd *round) setup() error {
	rd.w = rd.spec.workload(rd.seed)
	env, err := rd.provision(rd.w)
	if err != nil {
		return err
	}
	rd.env, rd.net = env, env.Net
	if rd.spec.pagedBudget > 0 {
		// Opening a paged store writes the genesis state to pages and
		// fsyncs them, so its time follows the disk; probe set-ups on
		// fresh geneses give setup_s a median over several.
		for i := 1; i < pagedStoreSetups; i++ {
			probe, err := rd.provision(rd.spec.workload(rd.seed))
			if err != nil {
				return err
			}
			dir := filepath.Join(rd.dir, fmt.Sprintf("probe-%d", i))
			st, err := rd.openStore(dir, probe.Net, obs.NewRegistry())
			if err != nil {
				return err
			}
			st.Close()
			os.RemoveAll(dir)
		}
	}
	if rd.spec.durable {
		st, err := rd.openStore(filepath.Join(rd.dir, "ds"), rd.net, rd.reg)
		if err != nil {
			return err
		}
		rd.st = &timedStore{inner: st, parent: noSpan, every: uint64(rd.spec.snapshotEvery)}
		rd.net.AttachStateStore(rd.st)
	}
	rep, err := rd.provision(rd.spec.workload(rd.seed))
	if err != nil {
		return err
	}
	rd.rep = rep.Net
	if a, b := rd.net.StateRoot(), rd.rep.StateRoot(); a != b {
		return fmt.Errorf("replica genesis root %s differs from committee %s", b, a)
	}
	return nil
}

// pagedStoreSetups is how many times a paged round opens and recovers
// a store: once for the committee and the rest as probes.
const pagedStoreSetups = 3

// openStore opens and recovers the store in dir onto net and records
// the time as a store set-up.
func (rd *round) openStore(dir string, net *shard.Network, reg *obs.Registry) (*store.Store, error) {
	t0 := time.Now()
	opts := []store.Option{store.WithSnapshotEvery(rd.spec.snapshotEvery), store.WithRegistry(reg)}
	if rd.spec.pagedBudget > 0 {
		opts = append(opts, store.WithPagedState(rd.spec.pagedBudget))
	}
	st, err := store.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	if err := st.Recover(net); err != nil {
		st.Close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	rd.storeSetups = append(rd.storeSetups, time.Since(t0))
	return st, nil
}

// setupSeconds is the set-up of one node: the median of the run's
// genesis provisions plus the median store open and recover.
func (r *pipelineRun) setupSeconds() float64 {
	return median(seconds(r.setups)) + median(seconds(r.storeSetups))
}

// batch generates the next epoch's transactions (untimed client work).
func (rd *round) batch() []*chain.Tx {
	txs := make([]*chain.Tx, rd.spec.txsPerEpoch)
	for i := range txs {
		txs[i] = rd.w.Next(rd.env)
	}
	return txs
}

// epoch drives one epoch: submit the batch, dispatch, execute every
// shard, finalize (with the store commit), apply at the replica. The
// epoch span covers exactly the stretch from the first SubmitTx to the
// replica holding the durable block.
func (rd *round) epoch(txs []*chain.Tx, traced, window bool) error {
	var tr *tracer
	if traced {
		tr = rd.tr
	}
	rec := epochRecord{traced: traced}
	t0 := time.Now()
	root := tr.begin("epoch", noSpan)

	sp := tr.begin("mempool.submit", root)
	for _, tx := range txs {
		at := time.Now()
		id, err := rd.net.SubmitTx(tx)
		if err != nil {
			rd.refused++
			id = 0
		}
		rd.submitAt = append(rd.submitAt, at)
		rd.segment = append(rd.segment, len(rd.records)/rd.spec.segmentEpochs())
		rd.ids = append(rd.ids, id)
	}
	rec.submit, rec.submitted = time.Since(t0), len(txs)
	tr.end(sp)

	sp = tr.begin("dispatch.begin", root)
	run := rd.net.BeginEpoch()
	run.CollectFinalBlock()
	tr.end(sp)

	sp = tr.begin("shard.execute", root)
	blocks, err := executeShards(rd.net, run, tr, sp)
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("shard.finalize", root)
	if rd.st != nil {
		rd.st.tr, rd.st.parent = tr, sp
	}
	stats, fb, err := rd.net.FinalizeEpoch(run, blocks)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("finalize epoch %d: %w", run.Epoch(), err)
	}

	sp = tr.begin("shard.replica_apply", root)
	err = rd.rep.ApplyFinalBlock(fb)
	tr.end(sp)
	tr.end(root)
	done := time.Now()
	rec.wall = done.Sub(t0)
	rd.applied[fb.Epoch] = done
	if errors.Is(err, shard.ErrStateDivergence) {
		rd.checks.fail("epoch %d: replica diverged: %v", fb.Epoch, err)
	} else if err != nil {
		return fmt.Errorf("replica apply epoch %d: %w", fb.Epoch, err)
	}
	if a, b := rd.net.StateRoot(), rd.rep.StateRoot(); a != b {
		rd.checks.fail("epoch %d: replica root %s, committee root %s", fb.Epoch, b, a)
	}

	rec.committed, rec.failed, rec.deferred = stats.Committed, stats.Failed, stats.Deferred
	rec.deltas = stats.DeltaEntries
	if rd.st != nil {
		rec.storeTime, rec.snapshot = rd.st.last, rd.st.snapshot
	}
	// A traced run encodes every epoch's blocks, traced or not, so both
	// halves of the overhead comparison carry the same garbage.
	if rd.tr != nil {
		if err := encodeBlocks(&rec, blocks, fb, tr); err != nil {
			return err
		}
	}
	if window {
		rd.reads(&rec)
		rd.records = append(rd.records, rec)
	}
	return nil
}

// receipts checks that every offered transaction has a receipt at the
// committee and at the replica, and records the committed ones'
// submit-to-commit latency.
func (rd *round) receipts() {
	failed := rd.refused
	for i, id := range rd.ids {
		if id == 0 {
			continue
		}
		rc, rr := rd.net.Receipt(id), rd.rep.Receipt(id)
		if rc == nil || rr == nil {
			failed++
			rd.checks.fail("transaction %d has no receipt", id)
			continue
		}
		if !rc.Success {
			failed++
			continue
		}
		at, ok := rd.applied[rc.Epoch]
		if !ok {
			rd.checks.fail("transaction %d committed in unknown epoch %d", id, rc.Epoch)
			continue
		}
		lat := ms(at.Sub(rd.submitAt[i]))
		rd.latencies = append(rd.latencies, lat)
		for len(rd.segLatencies) <= rd.segment[i] {
			rd.segLatencies = append(rd.segLatencies, nil)
		}
		rd.segLatencies[rd.segment[i]] = append(rd.segLatencies[rd.segment[i]], lat)
	}
	rd.attempted += len(rd.ids)
	rd.failed += failed
}

// executeShards runs ExecuteShard for every shard on at most GOMAXPROCS
// goroutines, one shard.execute_shard span per call.
func executeShards(n *shard.Network, run *shard.EpochRun, tr *tracer, parent spanID) ([]*shard.MicroBlock, error) {
	queues := run.Queues()
	blocks := make([]*shard.MicroBlock, len(queues))
	errs := make([]error, len(queues))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queues) {
		workers = len(queues)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= len(queues) {
					return
				}
				id := tr.begin("shard.execute_shard", parent)
				blocks[s], errs[s] = n.ExecuteShard(s, queues[s])
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return blocks, nil
}

// encodeBlocks wire-encodes the epoch's MicroBlocks and FinalBlock, as
// the node runtime ships them. It runs after the epoch, outside its
// span, in its own wire.encode root.
func encodeBlocks(rec *epochRecord, blocks []*shard.MicroBlock, fb *shard.FinalBlock, tr *tracer) error {
	sp := tr.begin("wire.encode", noSpan)
	t0 := time.Now()
	for _, mb := range blocks {
		b, err := wire.EncodeMicroBlock(mb)
		if err != nil {
			return fmt.Errorf("encode micro block: %w", err)
		}
		rec.mbBytes += len(b)
	}
	b, err := wire.EncodeFinalBlock(fb)
	if err != nil {
		return fmt.Errorf("encode final block: %w", err)
	}
	rec.fbBytes = len(b)
	rec.encodeTime = time.Since(t0)
	tr.end(sp)
	return nil
}

// reads makes the epoch's account reads against the committee's
// canonical state, the state a lookup's getBalance is served from.
func (rd *round) reads(rec *epochRecord) {
	users := rd.env.Users
	t0 := time.Now()
	for i := 0; i < rd.spec.readsPerEpoch; i++ {
		if rd.net.Accounts.Get(users[rd.rng.Intn(len(users))]) == nil {
			rd.checks.fail("read: funded account missing")
			return
		}
	}
	rec.readTime, rec.reads = time.Since(t0), rd.spec.readsPerEpoch
}

// restoreCheck restores the committee's state directory into a fresh
// genesis replica and requires the committee's root. The genesis is
// one more set-up sample; the restore is untimed.
func (rd *round) restoreCheck() error {
	fresh, err := rd.provision(rd.spec.workload(rd.seed))
	if err != nil {
		return err
	}
	if rd.st == nil {
		return nil
	}
	if err := store.Restore(filepath.Join(rd.dir, "ds"), fresh.Net); err != nil {
		rd.checks.fail("restore: %v", err)
		return nil
	}
	if a, b := rd.net.StateRoot(), fresh.Net.StateRoot(); a != b {
		rd.checks.fail("restored root %s, committee root %s", b, a)
	}
	return nil
}

// segmentEpochs is the length of a segment: one snapshot cycle of a
// durable run, so a segment holds exactly one flush epoch, and eight
// epochs otherwise. A pipeline's latency is set per epoch (a batch
// commits together), so its p99 is one of the run's slowest epochs;
// commit_tps and the p99 are taken per segment and reported as their
// median over segments, which one disturbed segment does not move.
func (p *pipelineSpec) segmentEpochs() int {
	if p.durable && p.snapshotEvery > 0 {
		return p.snapshotEvery
	}
	return 8
}

// report turns the run's records and receipts into the end-to-end
// metrics.
func (r *pipelineRun) report(epochs int) *result {
	res := newResult(r.checks)
	spec := r.spec
	w := spec.workload(r.seed)
	res.params = map[string]any{
		"shards": spec.shards, "txs_per_epoch": spec.txsPerEpoch, "epochs_per_round": epochs,
		"rounds": spec.rounds, "durable": spec.durable, "paged_budget_bytes": spec.pagedBudget,
		"snapshot_every": spec.snapshotEvery, "reads_per_epoch": spec.readsPerEpoch,
		"library_workload": w.Name, "users": w.Users, "setup_size": w.SetupSize,
		"setup_ms": durationsMS(r.setups), "store_setup_ms": durationsMS(r.storeSetups),
	}
	res.attempted, res.failed = r.attempted, r.failed

	var walls, submitPerTx, readPerOp, segTPS []float64
	var segCommitted int
	var segWall time.Duration
	for i, rec := range r.records {
		walls = append(walls, ms(rec.wall))
		submitPerTx = append(submitPerTx, ms(rec.submit)/float64(rec.submitted))
		readPerOp = append(readPerOp, ms(rec.readTime)/float64(rec.reads))
		segWall += rec.wall
		segCommitted += rec.committed
		if (i+1)%spec.segmentEpochs() == 0 || i+1 == len(r.records) {
			segTPS = append(segTPS, ratio(float64(segCommitted), segWall.Seconds()))
			segCommitted, segWall = 0, 0
		}
	}
	var segP99 []float64
	for _, lat := range r.segLatencies {
		v, ok := quantile(lat, 0.99)
		if !ok {
			r.checks.tooFew("submit_commit_ms_p99 (one segment)", len(lat), 0.99)
		}
		segP99 = append(segP99, v)
	}
	res.params["epoch_wall_ms"] = walls
	res.params["segment_commit_tps"] = segTPS
	res.params["segment_submit_commit_ms_p99"] = segP99
	e2e := res.endToEnd
	e2e.set("commit_tps", median(segTPS), "tx/s")
	res.e2eQuantile("epoch_ms_p50", walls, 0.5, "ms")
	res.e2eQuantile("submit_commit_ms_p50", r.latencies, 0.5, "ms")
	e2e.set("submit_commit_ms_p99", median(segP99), "ms")
	res.samples["submit_commit_ms_p99"] = len(r.latencies)
	res.e2eQuantile("ack_ms_p50", submitPerTx, 0.5, "ms")
	res.e2eQuantile("read_ms_p50", readPerOp, 0.5, "ms")
	e2e.set("commit_ratio", ratio(float64(res.attempted-res.failed), float64(res.attempted)), "ratio")
	return res
}

// layers derives the per-layer metrics from the traced epochs' spans
// and counts. Epoch-level times are means over the traced epochs: a
// durable run has too few epochs for a median under the quantile rule.
func (r *pipelineRun) layers(res *result) {
	tree := buildTree(r.tr.snapshot())
	worst, problems := tree.coverage("epoch")
	for _, p := range problems {
		r.checks.fail("trace coverage: %s", p)
	}
	pl := res.perLayer
	pl.set("trace.untimed_ratio_max", worst, "ratio")

	var begin, execMax, execSum, finalizeSelf, apply []float64
	var submitTime time.Duration
	for _, root := range tree.roots("epoch") {
		self := tree.selfByName(root)
		submitTime += self["mempool.submit"]
		begin = append(begin, ms(self["dispatch.begin"]))
		finalizeSelf = append(finalizeSelf, ms(self["shard.finalize"]))
		apply = append(apply, ms(self["shard.replica_apply"]))
		var mx, sm time.Duration
		for _, d := range tree.childDurations(root, "shard.execute_shard") {
			sm += d
			if d > mx {
				mx = d
			}
		}
		execMax, execSum = append(execMax, ms(mx)), append(execSum, ms(sm))
	}
	var submitted, committed, deferred, attempts, deltas, mbBytes, fbBytes, all int
	var encode time.Duration
	var storeJournal, storeSnap []float64
	for _, rec := range r.records {
		all += rec.committed
		if r.spec.durable {
			// The store wrapper times every commit, traced or not: the
			// journal median needs twenty journal epochs.
			if d := ms(rec.storeTime); rec.snapshot {
				storeSnap = append(storeSnap, d)
			} else {
				storeJournal = append(storeJournal, d)
			}
		}
		mbBytes += rec.mbBytes
		fbBytes += rec.fbBytes
		encode += rec.encodeTime
		if !rec.traced {
			continue
		}
		submitted += rec.submitted
		committed += rec.committed
		deferred += rec.deferred
		attempts += rec.committed + rec.failed + rec.deferred
		deltas += rec.deltas
	}
	mean := func(name string, xs []float64) {
		res.samples[name] = len(xs)
		pl.set(name, ratio(sum(xs), float64(len(xs))), "ms")
	}
	pl.set("mempool.admit_us_per_tx", ratio(us(submitTime), float64(submitted)), "us")
	mean("dispatch.begin_ms", begin)
	mean("shard.execute_max_ms", execMax)
	mean("shard.execute_sum_ms", execSum)
	mean("shard.finalize_self_ms", finalizeSelf)
	mean("shard.replica_apply_ms", apply)
	pl.set("shard.delta_entries_per_tx", ratio(float64(deltas), float64(committed)), "count")
	pl.set("shard.deferred_ratio", ratio(float64(deferred), float64(attempts)), "ratio")
	if r.spec.durable {
		res.layerQuantile("store.commit_ms_p50", storeJournal, 0.5, "ms")
		pl.set("store.commit_ms_max", maxOf(storeSnap), "ms")
		res.samples["store.commit_ms_max"] = len(storeSnap)
	}
	pl.set("wire.micro_block_bytes_per_tx", ratio(float64(mbBytes), float64(all)), "bytes")
	pl.set("wire.final_block_bytes_per_tx", ratio(float64(fbBytes), float64(all)), "bytes")
	pl.set("wire.encode_us_per_tx", ratio(us(encode), float64(all)), "us")
	r.overhead(res)
}

// overhead compares the throughput of the traced epochs with that of
// the untraced ones, each class's median epoch, flush epochs left out
// of both (one flush dwarfs the tracer). Medians keep garbage
// collection, which lands on some epochs of either class, from
// deciding the sign.
func (r *pipelineRun) overhead(res *result) {
	var traced, untraced []float64
	var tracedCommitted int
	var tracedWall time.Duration
	for _, rec := range r.records {
		if rec.traced {
			tracedCommitted += rec.committed
			tracedWall += rec.wall
		}
		if rec.snapshot {
			continue
		}
		tps := ratio(float64(rec.committed), rec.wall.Seconds())
		if rec.traced {
			traced = append(traced, tps)
		} else {
			untraced = append(untraced, tps)
		}
	}
	t, u := median(traced), median(untraced)
	res.perLayer.set("trace.commit_tps", ratio(float64(tracedCommitted), tracedWall.Seconds()), "tx/s")
	res.perLayer.set("trace.overhead_pct", 100*ratio(u-t, u), "%")
	res.samples["trace.overhead_pct"] = len(traced) + len(untraced)
}

// pagerMetrics reports the pager's counters (from the store's
// registry) over the windows.
func (r *pipelineRun) pagerMetrics(res *result, epochs int) {
	hits, faults := float64(r.pager["pager.hits"]), float64(r.pager["pager.faults"])
	pl := res.perLayer
	pl.set("pager.faults_per_epoch", faults/float64(epochs), "count")
	pl.set("pager.evictions_per_epoch", float64(r.pager["pager.evictions"])/float64(epochs), "count")
	pl.set("pager.writebacks_per_epoch", float64(r.pager["pager.writebacks"])/float64(epochs), "count")
	pl.set("pager.hit_ratio", ratio(hits, hits+faults), "ratio")
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
