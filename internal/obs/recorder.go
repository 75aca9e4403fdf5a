package obs

import "time"

// Kind identifies a trace event. Its row in kinds gives the event's
// JSONL name and the Event field behind each key, in line order.
type Kind uint8

// The trace events. Shard is a shard index, -1 the DS committee or -2
// a dispatcher rejection. Frame events carry node names instead of an
// epoch: links outlive epochs and do not parse payloads.
const (
	TxDispatched         Kind = iota // Tx routed to Shard for reason Label
	ShardExecStart                   // Shard starts executing its queue
	ShardExecEnd                     // Shard finished executing after Took
	MicroBlockSealed                 // Shard's per-epoch output
	ShardGroupsFormed                // Shard's conflict-group partition, when the grouped path executes
	GroupFoldDone                    // Shard's group results folded into one MicroBlock
	DeltaMerged                      // the DS committee's three-way merge (conflicts abort it)
	TxRequeued                       // transactions from Shard deferred back into the mempool
	ShardFault                       // fault directive Label took effect on Shard
	ViewChange                       // a PBFT view change charged to Shard's committee
	ShardEscalated                   // transactions routed to a faulting Shard ran on the DS committee
	OverflowGuardTripped             // Tx rejected on Shard by the Sec. 6 overflow guard
	TxAdmitted                       // Tx accepted into the mempool, perhaps parked or replacing by fee
	TxPoolRejected                   // Tx refused at mempool admission for reason Label
	TxEvicted                        // admitted Tx dropped from the mempool for reason Label
	MempoolDrained                   // one epoch's pull from the mempool
	TransitionCompiled               // deploy-time compilation of transition Name of contract Label
	FrameSent                        // a frame of message type Label left From for To
	FrameDropped                     // a frame discarded in flight
	FrameCorrupted                   // a frame whose payload bytes were flipped in flight
	EpochFinalized                   // the last event of an epoch, carrying Summary

	numKinds
)

// kinds is every event's JSONL name and its keys in line order, after
// the "seq", "t_ns" and "event" keys every line starts with.
var kinds = [numKinds]struct {
	name string
	cols []column
}{
	TxDispatched:   {"tx_dispatched", []column{colEpoch, colTx, colShard, label("reason")}},
	ShardExecStart: {"shard_exec_start", []column{colEpoch, colShard, count("queued", 0)}},
	ShardExecEnd:   {"shard_exec_end", []column{colEpoch, colShard, colTook}},
	MicroBlockSealed: {"micro_block_sealed", []column{colEpoch, colShard,
		count("receipts", 0), count("deltas", 1), count("deferred", 2), count("gas_used", 3)}},
	ShardGroupsFormed: {"shard_groups_formed", []column{colEpoch, colShard,
		count("groups", 0), count("largest", 1), count("residue", 2)}},
	GroupFoldDone: {"group_fold", []column{colEpoch, colShard, count("contracts", 0), colTook}},
	DeltaMerged: {"delta_merged", []column{colEpoch,
		count("contracts", 0), count("deltas", 1), count("entries", 2), count("conflicts", 3), colTook}},
	TxRequeued:           {"tx_requeued", []column{colEpoch, colShard, count("count", 0)}},
	ShardFault:           {"shard_fault", []column{colEpoch, colShard, label("kind"), count("lost", 0)}},
	ViewChange:           {"view_change", []column{colEpoch, colShard, colTook}},
	ShardEscalated:       {"shard_escalated", []column{colEpoch, colShard, count("txs", 0)}},
	OverflowGuardTripped: {"overflow_guard_tripped", []column{colEpoch, colShard, colTx}},
	TxAdmitted:           {"tx_admitted", []column{colEpoch, colTx, flag("parked", 0), flag("replaced", 1)}},
	TxPoolRejected:       {"tx_pool_rejected", []column{colEpoch, colTx, label("reason")}},
	TxEvicted:            {"tx_evicted", []column{colEpoch, colTx, label("reason")}},
	MempoolDrained: {"mempool_drained", []column{colEpoch,
		count("batch", 0), count("remaining", 1), count("parked", 2), colTook}},
	TransitionCompiled: {"transition_compiled", []column{colEpoch, label("contract"),
		text("transition", func(e *Event) string { return e.Name }), flag("compiled", 0), flag("fast_path", 1)}},
	FrameSent:      {"frame_sent", frameCols},
	FrameDropped:   {"frame_dropped", frameCols},
	FrameCorrupted: {"frame_corrupted", frameCols},
	EpochFinalized: {"epoch_finalized", []column{colEpoch,
		num("committed", func(e *Event) int64 { return int64(e.Summary.Committed) }),
		num("failed", func(e *Event) int64 { return int64(e.Summary.Failed) }),
		num("rejected", func(e *Event) int64 { return int64(e.Summary.Rejected) }),
		num("deferred", func(e *Event) int64 { return int64(e.Summary.Deferred) }),
		num("ds_committed", func(e *Event) int64 { return int64(e.Summary.DSCommitted) }),
		num("delta_entries", func(e *Event) int64 { return int64(e.Summary.DeltaEntries) }),
		num("dispatch_ns", func(e *Event) int64 { return int64(e.Summary.Dispatch) }),
		num("exec_max_ns", func(e *Event) int64 { return int64(e.Summary.ExecMax) }),
		num("exec_sum_ns", func(e *Event) int64 { return int64(e.Summary.ExecSum) }),
		num("merge_ns", func(e *Event) int64 { return int64(e.Summary.Merge) }),
		num("ds_ns", func(e *Event) int64 { return int64(e.Summary.DSExec) }),
		num("consensus_ns", func(e *Event) int64 { return int64(e.Summary.Consensus) }),
		num("wall_ns", func(e *Event) int64 { return int64(e.Summary.Wall) }),
		num("measured_ns", func(e *Event) int64 { return int64(e.Summary.Measured) }),
	}},
}

var frameCols = []column{
	text("from", func(e *Event) string { return e.From }),
	text("to", func(e *Event) string { return e.To }),
	label("msg"), count("bytes", 0),
}

// Event is one trace record: a flat value whose Kind's row in kinds
// says which fields are filled; the rest stay zero.
type Event struct {
	Kind        Kind
	Epoch, Tx   uint64
	Shard       int
	From, To    string // frame endpoints
	Label, Name string // reason, fault directive, message type or contract; transition
	N           [4]int // counts, indexed as in the kind's row
	Flag        [2]bool
	Took        time.Duration
	Summary     EpochSummary // EpochFinalized only; Epoch equals Summary.Epoch
}

// Recorder receives the trace events the pipeline emits. Event is
// passed by value, so recording into Nop allocates nothing.
//
// Implementations must be safe for concurrent use: shard-scoped events
// are emitted from worker goroutines when the parallel pipeline is
// enabled. Event order across different shards is deterministic only
// in the sequential pipeline.
type Recorder interface {
	Record(e Event)
}

// Nop is the default Recorder. Its empty Record keeps the instrumented
// hot path allocation-free when tracing is off.
type Nop struct{}

// Record implements Recorder.
func (Nop) Record(Event) {}

// multi fans every event out to several recorders in order.
type multi []Recorder

// Multi combines recorders: Nop and nil members are dropped, zero
// remaining recorders collapse to Nop, and a single recorder is
// returned as-is.
func Multi(recs ...Recorder) Recorder {
	var kept multi
	for _, r := range recs {
		if _, isNop := r.(Nop); r != nil && !isNop {
			kept = append(kept, r)
		}
	}
	switch len(kept) {
	case 0:
		return Nop{}
	case 1:
		return kept[0]
	}
	return kept
}

// Record implements Recorder.
func (m multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}
