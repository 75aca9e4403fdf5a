package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tx.committed")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("tx.committed") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("mempool.size")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	snap := r.Snapshot()
	if snap.Counters["tx.committed"] != 5 || snap.Gauges["mempool.size"] != 5 {
		t.Errorf("snapshot = %+v", snap)
	}
	// The snapshot is immutable: later updates don't change it.
	c.Inc()
	if snap.Counters["tx.committed"] != 5 {
		t.Error("snapshot mutated by a later counter update")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.TimeHistogram("epoch.wall_time")
	h.ObserveDuration(500 * time.Nanosecond) // below first bound -> bucket 0
	h.ObserveDuration(time.Microsecond)      // == first bound (inclusive)
	h.ObserveDuration(3 * time.Millisecond)  // 2ms < v <= 5ms
	h.ObserveDuration(time.Minute)           // overflow
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	hs := r.Snapshot().Histograms["epoch.wall_time"]
	got := map[int64]int64{}
	for _, b := range hs.Buckets {
		got[b.Le] = b.Count
	}
	if got[int64(time.Microsecond)] != 2 {
		t.Errorf("1µs bucket = %d, want 2 (below-first and at-bound)", got[int64(time.Microsecond)])
	}
	if got[int64(5*time.Millisecond)] != 1 {
		t.Errorf("5ms bucket = %d, want 1", got[int64(5*time.Millisecond)])
	}
	if got[-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", got[-1])
	}
	if hs.Mean() <= 0 {
		t.Error("mean not positive")
	}
}

func TestSizeHistogramLayout(t *testing.T) {
	h := NewRegistry().SizeHistogram("shard.queue_depth")
	h.Observe(0)
	h.Observe(1)
	h.Observe(1025)
	if h.Count() != 3 || h.Sum() != 1026 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestSnapshotWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.SizeHistogram("h").Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["a"] != 1 || round.Histograms["h"].Count != 1 {
		t.Errorf("round-tripped snapshot = %+v", round)
	}
}

// everyKind is one event of each Kind, in Kind order, with distinct
// values in every slot the kind's row reads, and the exact line the
// journal writes for it as the first event of a journal whose clock
// ticks once per line. Frame events carry no epoch key.
var everyKind = []struct {
	ev   Event
	line string
}{
	{Event{Kind: TxDispatched, Epoch: 7, Tx: 42, Shard: 3, Label: "constraints satisfied"},
		`{"seq":1,"t_ns":1,"event":"tx_dispatched","epoch":7,"tx":42,"shard":3,"reason":"constraints satisfied"}`},
	{Event{Kind: ShardExecStart, Epoch: 7, Shard: 3, N: [4]int{10}},
		`{"seq":2,"t_ns":2,"event":"shard_exec_start","epoch":7,"shard":3,"queued":10}`},
	{Event{Kind: ShardExecEnd, Epoch: 7, Shard: 3, Took: 5 * time.Millisecond},
		`{"seq":3,"t_ns":3,"event":"shard_exec_end","epoch":7,"shard":3,"took_ns":5000000}`},
	{Event{Kind: MicroBlockSealed, Epoch: 7, Shard: 3, N: [4]int{10, 2, 1, 123}},
		`{"seq":4,"t_ns":4,"event":"micro_block_sealed","epoch":7,"shard":3,"receipts":10,"deltas":2,"deferred":1,"gas_used":123}`},
	{Event{Kind: ShardGroupsFormed, Epoch: 7, Shard: 3, N: [4]int{4, 5, 6}},
		`{"seq":5,"t_ns":5,"event":"shard_groups_formed","epoch":7,"shard":3,"groups":4,"largest":5,"residue":6}`},
	{Event{Kind: GroupFoldDone, Epoch: 7, Shard: 3, N: [4]int{2}, Took: 1500},
		`{"seq":6,"t_ns":6,"event":"group_fold","epoch":7,"shard":3,"contracts":2,"took_ns":1500}`},
	{Event{Kind: DeltaMerged, Epoch: 7, N: [4]int{1, 2, 7, 4}, Took: time.Millisecond},
		`{"seq":7,"t_ns":7,"event":"delta_merged","epoch":7,"contracts":1,"deltas":2,"entries":7,"conflicts":4,"took_ns":1000000}`},
	{Event{Kind: TxRequeued, Epoch: 7, Shard: -1, N: [4]int{2}},
		`{"seq":8,"t_ns":8,"event":"tx_requeued","epoch":7,"shard":-1,"count":2}`},
	{Event{Kind: ShardFault, Epoch: 7, Shard: 1, Label: "crash", N: [4]int{9}},
		`{"seq":9,"t_ns":9,"event":"shard_fault","epoch":7,"shard":1,"kind":"crash","lost":9}`},
	{Event{Kind: ViewChange, Epoch: 7, Shard: 1, Took: 2 * time.Second},
		`{"seq":10,"t_ns":10,"event":"view_change","epoch":7,"shard":1,"took_ns":2000000000}`},
	{Event{Kind: ShardEscalated, Epoch: 7, Shard: 2, N: [4]int{11}},
		`{"seq":11,"t_ns":11,"event":"shard_escalated","epoch":7,"shard":2,"txs":11}`},
	{Event{Kind: OverflowGuardTripped, Epoch: 7, Shard: 0, Tx: 9},
		`{"seq":12,"t_ns":12,"event":"overflow_guard_tripped","epoch":7,"shard":0,"tx":9}`},
	{Event{Kind: TxAdmitted, Epoch: 7, Tx: 43, Flag: [2]bool{true, false}},
		`{"seq":13,"t_ns":13,"event":"tx_admitted","epoch":7,"tx":43,"parked":true,"replaced":false}`},
	{Event{Kind: TxPoolRejected, Epoch: 7, Tx: 44, Label: "pool full"},
		`{"seq":14,"t_ns":14,"event":"tx_pool_rejected","epoch":7,"tx":44,"reason":"pool full"}`},
	{Event{Kind: TxEvicted, Epoch: 7, Tx: 45, Label: "age"},
		`{"seq":15,"t_ns":15,"event":"tx_evicted","epoch":7,"tx":45,"reason":"age"}`},
	{Event{Kind: MempoolDrained, Epoch: 7, N: [4]int{100, 5, 1}, Took: 3000},
		`{"seq":16,"t_ns":16,"event":"mempool_drained","epoch":7,"batch":100,"remaining":5,"parked":1,"took_ns":3000}`},
	{Event{Kind: TransitionCompiled, Label: "FungibleToken", Name: "Transfer", Flag: [2]bool{true, false}},
		`{"seq":17,"t_ns":17,"event":"transition_compiled","epoch":0,"contract":"FungibleToken","transition":"Transfer","compiled":true,"fast_path":false}`},
	{Event{Kind: FrameSent, From: "ds", To: "shard-0", Label: "tx_batch", N: [4]int{128}},
		`{"seq":18,"t_ns":18,"event":"frame_sent","from":"ds","to":"shard-0","msg":"tx_batch","bytes":128}`},
	{Event{Kind: FrameDropped, From: "shard-0", To: "ds", Label: "micro_block", N: [4]int{512}},
		`{"seq":19,"t_ns":19,"event":"frame_dropped","from":"shard-0","to":"ds","msg":"micro_block","bytes":512}`},
	{Event{Kind: FrameCorrupted, From: "ds", To: "lookup", Label: "final_block", N: [4]int{2048}},
		`{"seq":20,"t_ns":20,"event":"frame_corrupted","from":"ds","to":"lookup","msg":"final_block","bytes":2048}`},
	{Event{Kind: EpochFinalized, Epoch: 7, Summary: EpochSummary{Epoch: 7, Committed: 10, Failed: 1, Rejected: 2,
		Deferred: 3, DSCommitted: 4, DeltaEntries: 5, Dispatch: 6, ExecMax: 7, ExecSum: 8, Merge: 9,
		DSExec: 10, Consensus: 11, Wall: 12, Measured: 13}},
		`{"seq":21,"t_ns":21,"event":"epoch_finalized","epoch":7,"committed":10,"failed":1,"rejected":2,"deferred":3,"ds_committed":4,"delta_entries":5,"dispatch_ns":6,"exec_max_ns":7,"exec_sum_ns":8,"merge_ns":9,"ds_ns":10,"consensus_ns":11,"wall_ns":12,"measured_ns":13}`},
}

// TestJournalEmitsOneLinePerEvent records one event of every Kind and
// pins each raw line byte for byte: the sequence number, the injected
// clock's stamp, the event name, and each key with its value in order.
func TestJournalEmitsOneLinePerEvent(t *testing.T) {
	if len(everyKind) != int(numKinds) {
		t.Fatalf("everyKind has %d events, want one per Kind (%d)", len(everyKind), numKinds)
	}
	var buf bytes.Buffer
	var tick int64
	j := NewJournal(&buf, WithClock(func() time.Duration {
		tick++
		return time.Duration(tick)
	}))
	for i, c := range everyKind {
		if c.ev.Kind != Kind(i) {
			t.Fatalf("everyKind[%d] has Kind %d, want %d", i, c.ev.Kind, i)
		}
		j.Record(c.ev)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(everyKind) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(everyKind), buf.String())
	}
	for i, c := range everyKind {
		if lines[i] != c.line {
			t.Errorf("%s:\n got %s\nwant %s", kinds[c.ev.Kind].name, lines[i], c.line)
		}
		if !json.Valid([]byte(lines[i])) {
			t.Errorf("line %d is not JSON: %s", i, lines[i])
		}
	}
}

func TestJournalEscapesReasonStrings(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Record(Event{Kind: TxDispatched, Epoch: 1, Tx: 1, Shard: -1, Label: `unshardable transition (⊥) with "quotes"`})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &m); err != nil {
		t.Fatalf("escaped reason broke the line: %v\n%s", err, buf.String())
	}
	if !strings.Contains(m["reason"].(string), "⊥") {
		t.Errorf("reason mangled: %q", m["reason"])
	}
}

func TestMultiFansOutAndDropsNops(t *testing.T) {
	if _, isNop := Multi().(Nop); !isNop {
		t.Error("Multi() should collapse to Nop")
	}
	if _, isNop := Multi(Nop{}, nil, Nop{}).(Nop); !isNop {
		t.Error("Multi of nops should collapse to Nop")
	}
	c1, c2 := NewStageCollector(), NewStageCollector()
	if Multi(Nop{}, c1) != Recorder(c1) {
		t.Error("Multi with one real recorder should return it unwrapped")
	}
	m := Multi(c1, c2)
	m.Record(Event{Kind: EpochFinalized, Epoch: 3, Summary: EpochSummary{Epoch: 3, Committed: 2}})
	for i, c := range []*StageCollector{c1, c2} {
		if c.Last().Committed != 2 || c.Epochs() != 1 {
			t.Errorf("collector %d did not receive the fanned-out event: %+v", i, c.Last())
		}
	}
}

func TestStageCollectorTotals(t *testing.T) {
	c := NewStageCollector()
	c.Record(Event{Kind: EpochFinalized, Epoch: 1, Summary: EpochSummary{Epoch: 1, Committed: 3, Dispatch: time.Millisecond, ExecSum: 2 * time.Millisecond}})
	c.Record(Event{Kind: EpochFinalized, Epoch: 2, Summary: EpochSummary{Epoch: 2, Committed: 4, Dispatch: time.Millisecond, Merge: time.Millisecond}})
	// Every other kind is ignored, even one carrying a summary.
	c.Record(Event{Kind: DeltaMerged, Epoch: 2, Summary: EpochSummary{Epoch: 9, Committed: 100}})
	tot := c.Total()
	if tot.Committed != 7 || tot.Dispatch != 2*time.Millisecond || tot.Epoch != 2 || c.Epochs() != 2 {
		t.Errorf("total = %+v over %d epochs", tot, c.Epochs())
	}
	if c.Last().Committed != 4 {
		t.Errorf("last = %+v", c.Last())
	}
	want := tot.Dispatch + tot.ExecSum + tot.Merge + tot.DSExec + tot.Consensus
	if tot.SequentialWall() != want {
		t.Errorf("SequentialWall = %v, want %v", tot.SequentialWall(), want)
	}
}

// TestJournalFrameEvents covers the transport-layer events: they carry
// node names and frame sizes instead of an epoch.
func TestJournalFrameEvents(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Record(Event{Kind: FrameSent, From: "ds", To: "shard-0", Label: "tx_batch", N: [4]int{128}})
	j.Record(Event{Kind: FrameDropped, From: "shard-0", To: "ds", Label: "micro_block", N: [4]int{512}})
	j.Record(Event{Kind: FrameCorrupted, From: "ds", To: "lookup", Label: "final_block", N: [4]int{2048}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	wantEvents := []string{"frame_sent", "frame_dropped", "frame_corrupted"}
	wantBytes := []float64{128, 512, 2048}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if m["event"] != wantEvents[i] {
			t.Errorf("line %d event = %v, want %s", i, m["event"], wantEvents[i])
		}
		if m["bytes"] != wantBytes[i] {
			t.Errorf("line %d bytes = %v, want %v", i, m["bytes"], wantBytes[i])
		}
		if _, hasEpoch := m["epoch"]; hasEpoch {
			t.Errorf("line %d carries an epoch field; frame events must not", i)
		}
		if m["from"] == "" || m["to"] == "" || m["msg"] == "" {
			t.Errorf("line %d missing from/to/msg: %s", i, line)
		}
	}
}

// TestNopRecorderZeroAllocs pins the observability contract the hot
// path relies on: with tracing off (the default Nop recorder) recording
// an event of any Kind through the Recorder interface performs zero
// allocations.
func TestNopRecorderZeroAllocs(t *testing.T) {
	var rec Recorder = Nop{}
	for _, c := range everyKind {
		ev := c.ev
		allocs := testing.AllocsPerRun(1000, func() { rec.Record(ev) })
		if allocs != 0 {
			t.Errorf("Nop.Record(%s) allocates %.1f/op, want 0", kinds[ev.Kind].name, allocs)
		}
	}
}

// Counter updates must also stay allocation-free: metrics are always
// on, so the dispatcher hot path increments them per transaction.
func TestCounterZeroAllocs(t *testing.T) {
	c := NewRegistry().Counter("x")
	h := NewRegistry().TimeHistogram("y")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.ObserveDuration(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("counter/histogram update allocates %.1f/op, want 0", allocs)
	}
}
