package obs

import "time"

// EpochSummary is the per-epoch roll-up carried by the EpochFinalized
// event: transaction counts plus the per-stage timings of the Fig. 10
// pipeline. All durations are host-measured except Consensus and Wall,
// which are modelled (see internal/consensus).
type EpochSummary struct {
	Epoch       uint64
	Committed   int
	Failed      int
	Rejected    int
	Deferred    int
	DSCommitted int
	// DeltaEntries is the total number of merged state components.
	DeltaEntries int

	// Per-stage timings. ExecMax is the slowest shard (what the modelled
	// pipeline charges, shards being distinct machines); ExecSum totals
	// every shard (what a non-pipelined executor would pay).
	Dispatch  time.Duration
	ExecMax   time.Duration
	ExecSum   time.Duration
	Merge     time.Duration
	DSExec    time.Duration
	Consensus time.Duration
	// Wall is the modelled epoch duration (Dispatch + ExecMax + Merge +
	// DSExec + Consensus); Measured is the host wall-clock actually
	// spent.
	Wall     time.Duration
	Measured time.Duration
}

// SequentialWall is the modelled duration of the same epoch on a
// non-pipelined executor: shard queues charged back-to-back instead of
// in parallel.
func (s EpochSummary) SequentialWall() time.Duration {
	return s.Dispatch + s.ExecSum + s.Merge + s.DSExec + s.Consensus
}

// add accumulates another epoch into s (durations and counts sum;
// Epoch tracks the latest).
func (s *EpochSummary) add(o EpochSummary) {
	s.Epoch = o.Epoch
	s.Committed += o.Committed
	s.Failed += o.Failed
	s.Rejected += o.Rejected
	s.Deferred += o.Deferred
	s.DSCommitted += o.DSCommitted
	s.DeltaEntries += o.DeltaEntries
	s.Dispatch += o.Dispatch
	s.ExecMax += o.ExecMax
	s.ExecSum += o.ExecSum
	s.Merge += o.Merge
	s.DSExec += o.DSExec
	s.Consensus += o.Consensus
	s.Wall += o.Wall
	s.Measured += o.Measured
}
