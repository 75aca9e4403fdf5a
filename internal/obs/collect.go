package obs

import "sync"

// StageCollector is a Recorder that keeps the per-stage timings of the
// most recent epoch and a running total across epochs. The benchmark
// harness attaches one via shard.WithRecorder and reads stage timings
// from it instead of threading fields through EpochStats.
type StageCollector struct {
	mu     sync.Mutex
	last   EpochSummary
	total  EpochSummary
	epochs int
}

// NewStageCollector creates an empty collector.
func NewStageCollector() *StageCollector { return &StageCollector{} }

// Record implements Recorder; it keeps only EpochFinalized events.
func (c *StageCollector) Record(e Event) {
	if e.Kind != EpochFinalized {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = e.Summary
	c.total.add(e.Summary)
	c.epochs++
}

// Last returns the most recently finalized epoch's summary.
func (c *StageCollector) Last() EpochSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Total returns the sum over every finalized epoch (counts and
// durations accumulate; Epoch holds the latest epoch number).
func (c *StageCollector) Total() EpochSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Epochs returns how many epochs have been finalized.
func (c *StageCollector) Epochs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochs
}
