// Package mempool is the ingestion layer between clients and the
// lookup dispatcher: a concurrent transaction pool, sharded by sender,
// that orders pending transactions by gas price, keeps per-sender
// nonce chains under the paper's relaxed-nonce rule (Sec. 4.2.1), and
// applies admission control so the epoch pipeline sees bounded,
// well-formed batches even under heavy open-loop traffic.
//
// Structure. Senders are hashed onto a fixed set of stripes, each a
// mutex-guarded map of per-sender queues, so concurrent SubmitTx
// traffic from distinct senders rarely contends. A sender's queue is a
// nonce-indexed map plus a progress watermark (the highest nonce ever
// handed to the dispatcher): the contiguous run of nonces just above
// max(committed nonce, progress) is ready; anything beyond a gap is
// parked in place — a future queue by construction — until the gap
// fills or age eviction reclaims it. Relaxed nonces make every pending
// nonce individually valid, but releasing them in order keeps a
// sender's low nonces from being invalidated by a committed higher
// nonce.
//
// Admission. A transaction is rejected with a typed error (testable
// with errors.Is) when the pool is at capacity and the newcomer does
// not strictly outbid the cheapest evictable transaction (ErrPoolFull,
// which also covers the per-sender pending cap), when it does not
// raise the fee of the same-nonce transaction it would replace
// (ErrUnderpriced, wrapping dispatch.ErrNonceReplay so callers see the
// duplicate-nonce cause), or when its nonce is further beyond the
// sender's chain head than the future queue accepts (ErrNonceGap).
// Nonces at or below the committed account nonce wrap
// dispatch.ErrStaleNonce.
//
// Draining. DrainEpoch pops ready transactions in gas-price order
// (ties broken by sender address, then nonce within a sender) through
// a heap of per-sender cursors, so the batch it hands the dispatcher
// is a pure function of the pool's pending multiset: any arrival order
// of the same transactions yields the same batches and, downstream,
// the same state root. Deferred transactions re-enter through Requeue,
// which rewinds the sender's progress watermark so they drain again
// next epoch.
//
// Every admission verdict, eviction and drain is counted in an
// obs.Registry and, when a recorder is attached, emitted as typed
// trace events (tx_admitted, tx_pool_rejected, tx_evicted,
// mempool_drained).
package mempool

import (
	"bytes"
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/dispatch"
	"cosplit/internal/obs"
)

// Config parameterises the pool. Zero values for Capacity, PerSender
// and MaxNonceGap fall back to the DefaultConfig values; MinGasPrice 0
// disables the price floor, MaxAgeEpochs 0 disables age eviction, and
// MaxBatch 0 lets DrainEpoch hand over every ready transaction.
type Config struct {
	// Capacity is the global cap on pending transactions. At capacity,
	// a newcomer must strictly outbid the cheapest chain tail in the
	// pool, which is evicted to make room; otherwise ErrPoolFull.
	Capacity int
	// PerSender caps one sender's pending transactions (ready plus
	// parked) — the per-sender rate cap of the admission layer.
	PerSender int
	// MaxNonceGap bounds how far beyond the sender's next expected
	// nonce a transaction may park; nonces further out are rejected
	// with ErrNonceGap instead of occupying future-queue slots forever.
	MaxNonceGap uint64
	// MinGasPrice is the admission price floor (0 = none).
	MinGasPrice uint64
	// MaxAgeEpochs evicts transactions that stayed pending for this
	// many epochs — the backstop that reclaims parked transactions
	// whose nonce gap never fills (0 = never).
	MaxAgeEpochs uint64
	// MaxBatch caps how many transactions one DrainEpoch hands to the
	// dispatcher (0 = all ready transactions).
	MaxBatch int
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Capacity:     16384,
		PerSender:    64,
		MaxNonceGap:  64,
		MinGasPrice:  1,
		MaxAgeEpochs: 32,
	}
}

// NonceSource reports the committed account nonce the relaxed-nonce
// admission checks validate against; *chain.Accounts implements it.
type NonceSource interface {
	NonceOf(addr chain.Address) (uint64, bool)
}

// Precompiled rejection/eviction reasons for trace events.
const (
	reasonPoolFull      = "pool full"
	reasonUnderpriced   = "underpriced"
	reasonNonceGap      = "nonce gap"
	reasonStale         = "stale nonce"
	reasonReplay        = "replayed nonce"
	reasonUnknownSender = "unknown sender"
	reasonCapacity      = "capacity"
	reasonAge           = "age"
)

// stripeCount must be a power of two.
const stripeCount = 64

type entry struct {
	tx *chain.Tx
	// epoch the transaction was admitted (or requeued) in, for age
	// eviction.
	epoch uint64
}

// senderQueue is one sender's nonce chain: pending transactions keyed
// by nonce plus the progress watermark. It persists after draining so
// the watermark keeps rejecting nonces already handed downstream.
type senderQueue struct {
	pending map[uint64]*entry
	// progress is the highest nonce ever drained to the dispatcher.
	// Requeue rewinds it so deferred transactions drain again.
	progress uint64
}

// head returns the sender's chain head: the highest nonce the chain
// has consumed or the pool has handed out, whichever is further.
func (q *senderQueue) head(committed uint64) uint64 {
	if q.progress > committed {
		return q.progress
	}
	return committed
}

// contiguous reports whether every nonce strictly between head and n
// is pending, i.e. nonce n sits on (or extends) the contiguous ready
// run and is not parked behind a gap. The walk is bounded by the
// admission window (MaxNonceGap).
func (q *senderQueue) contiguous(head, n uint64) bool {
	for m := head + 1; m < n; m++ {
		if _, ok := q.pending[m]; !ok {
			return false
		}
	}
	return true
}

type stripe struct {
	mu      sync.Mutex
	senders map[chain.Address]*senderQueue
}

// Pool is the admission-controlled transaction pool. It is safe for
// concurrent use; only DrainEpoch ever holds more than one stripe
// lock, so submission and draining never deadlock. Under concurrent
// submission the global capacity is enforced approximately (the pool
// can transiently overshoot by the number of in-flight submitters).
type Pool struct {
	cfg    Config
	nonces NonceSource
	rec    obs.Recorder
	m      poolMetrics

	// epoch stamps admission events and age-tracks entries; DrainEpoch
	// advances it.
	epoch atomic.Uint64
	size  atomic.Int64

	stripes [stripeCount]stripe
}

// Option configures a Pool at construction time.
type Option func(*Pool)

// WithRecorder attaches a trace recorder to the pool's admission,
// eviction and drain events.
func WithRecorder(rec obs.Recorder) Option {
	return func(p *Pool) {
		if rec != nil {
			p.rec = rec
		}
	}
}

// WithRegistry registers the pool's always-on metrics in reg instead
// of a private registry.
func WithRegistry(reg *obs.Registry) Option {
	return func(p *Pool) { p.m = newPoolMetrics(reg) }
}

// New builds a pool validating nonces against src.
func New(cfg Config, src NonceSource, opts ...Option) *Pool {
	def := DefaultConfig()
	if cfg.Capacity <= 0 {
		cfg.Capacity = def.Capacity
	}
	if cfg.PerSender <= 0 {
		cfg.PerSender = def.PerSender
	}
	if cfg.MaxNonceGap == 0 {
		cfg.MaxNonceGap = def.MaxNonceGap
	}
	p := &Pool{cfg: cfg, nonces: src, rec: obs.Nop{}}
	p.m = newPoolMetrics(obs.NewRegistry())
	for i := range p.stripes {
		p.stripes[i].senders = make(map[chain.Address]*senderQueue)
	}
	p.epoch.Store(1)
	for _, o := range opts {
		o(p)
	}
	return p
}

// Config returns the pool's resolved configuration.
func (p *Pool) Config() Config { return p.cfg }

// Len returns the number of pending transactions (ready + parked).
func (p *Pool) Len() int { return int(p.size.Load()) }

func (p *Pool) stripeFor(a chain.Address) *stripe {
	// FNV-1a over the address bytes spreads senders across stripes.
	h := uint32(2166136261)
	for _, b := range a {
		h = (h ^ uint32(b)) * 16777619
	}
	return &p.stripes[h&(stripeCount-1)]
}

// Add admits a transaction. A nil return means the transaction is
// pending (possibly parked behind a nonce gap, possibly having
// replaced a cheaper same-nonce predecessor); a non-nil return wraps
// one of the package's sentinel errors — and, for nonce-related
// causes, the matching dispatch sentinel — with %w.
func (p *Pool) Add(tx *chain.Tx) error {
	ep := p.epoch.Load()
	if p.cfg.MinGasPrice > 0 && tx.GasPrice < p.cfg.MinGasPrice {
		p.m.rejectUnderpriced.Inc()
		p.rec.Record(obs.Event{Kind: obs.TxPoolRejected, Epoch: ep, Tx: tx.ID, Label: reasonUnderpriced})
		return fmt.Errorf("mempool: gas price %d below floor %d: %w",
			tx.GasPrice, p.cfg.MinGasPrice, ErrUnderpriced)
	}
	committed, known := p.nonces.NonceOf(tx.From)
	if !known {
		p.m.rejectStale.Inc()
		p.rec.Record(obs.Event{Kind: obs.TxPoolRejected, Epoch: ep, Tx: tx.ID, Label: reasonUnknownSender})
		return fmt.Errorf("mempool: %w %s", dispatch.ErrUnknownSender, tx.From)
	}

	st := p.stripeFor(tx.From)
	st.mu.Lock()
	q := st.senders[tx.From]
	if q == nil {
		q = &senderQueue{pending: make(map[uint64]*entry)}
		st.senders[tx.From] = q
	}
	head := q.head(committed)

	// Replacement-by-fee: a pending (sender, nonce) may be replaced by
	// a strictly better-paying transaction; anything else is a
	// duplicate-nonce submission.
	if old, ok := q.pending[tx.Nonce]; ok {
		if tx.GasPrice > old.tx.GasPrice {
			q.pending[tx.Nonce] = &entry{tx: tx, epoch: ep}
			parked := !q.contiguous(head, tx.Nonce)
			st.mu.Unlock()
			p.m.admitted.Inc()
			p.m.replaced.Inc()
			p.rec.Record(obs.Event{Kind: obs.TxAdmitted, Epoch: ep, Tx: tx.ID, Flag: [2]bool{parked, true}})
			return nil
		}
		oldPrice := old.tx.GasPrice
		st.mu.Unlock()
		p.m.rejectUnderpriced.Inc()
		p.rec.Record(obs.Event{Kind: obs.TxPoolRejected, Epoch: ep, Tx: tx.ID, Label: reasonUnderpriced})
		return fmt.Errorf("mempool: replacement for nonce %d needs gas price > %d, got %d: %w (%w)",
			tx.Nonce, oldPrice, tx.GasPrice, ErrUnderpriced, dispatch.ErrNonceReplay)
	}
	if tx.Nonce <= committed {
		st.mu.Unlock()
		p.m.rejectStale.Inc()
		p.rec.Record(obs.Event{Kind: obs.TxPoolRejected, Epoch: ep, Tx: tx.ID, Label: reasonStale})
		return fmt.Errorf("mempool: nonce %d at or below committed %d: %w",
			tx.Nonce, committed, dispatch.ErrStaleNonce)
	}
	if tx.Nonce <= head {
		// Between the committed nonce and the progress watermark: the
		// nonce was already drained this epoch and is in flight.
		st.mu.Unlock()
		p.m.rejectReplay.Inc()
		p.rec.Record(obs.Event{Kind: obs.TxPoolRejected, Epoch: ep, Tx: tx.ID, Label: reasonReplay})
		return fmt.Errorf("mempool: nonce %d already handed to dispatch: %w",
			tx.Nonce, dispatch.ErrNonceReplay)
	}
	if tx.Nonce > head+1+p.cfg.MaxNonceGap {
		st.mu.Unlock()
		p.m.rejectNonceGap.Inc()
		p.rec.Record(obs.Event{Kind: obs.TxPoolRejected, Epoch: ep, Tx: tx.ID, Label: reasonNonceGap})
		return fmt.Errorf("mempool: nonce %d is %d past next expected %d, window %d: %w",
			tx.Nonce, tx.Nonce-head-1, head+1, p.cfg.MaxNonceGap, ErrNonceGap)
	}
	if len(q.pending) >= p.cfg.PerSender {
		st.mu.Unlock()
		p.m.rejectFull.Inc()
		p.rec.Record(obs.Event{Kind: obs.TxPoolRejected, Epoch: ep, Tx: tx.ID, Label: reasonPoolFull})
		return fmt.Errorf("mempool: sender %s at per-sender cap %d: %w",
			tx.From, p.cfg.PerSender, ErrPoolFull)
	}

	// Global capacity: evict the cheapest chain tail if the newcomer
	// strictly outbids it. The stripe lock is released first — only
	// DrainEpoch may hold more than one stripe lock at a time.
	if p.size.Load() >= int64(p.cfg.Capacity) {
		st.mu.Unlock()
		victim, ok := p.evictCheapestTail(tx.GasPrice)
		if !ok {
			p.m.rejectFull.Inc()
			p.rec.Record(obs.Event{Kind: obs.TxPoolRejected, Epoch: ep, Tx: tx.ID, Label: reasonPoolFull})
			return fmt.Errorf("mempool: at capacity %d and gas price %d does not outbid the pool floor: %w (%w)",
				p.cfg.Capacity, tx.GasPrice, ErrPoolFull, ErrUnderpriced)
		}
		if victim != 0 {
			p.m.evictCapacity.Inc()
			p.rec.Record(obs.Event{Kind: obs.TxEvicted, Epoch: ep, Tx: victim, Label: reasonCapacity})
		}
		st.mu.Lock()
		// The queue may have moved while unlocked; a same-nonce racer
		// keeps the slot only if it pays at least as much.
		if old, ok := q.pending[tx.Nonce]; ok && old.tx.GasPrice >= tx.GasPrice {
			st.mu.Unlock()
			p.m.rejectUnderpriced.Inc()
			p.rec.Record(obs.Event{Kind: obs.TxPoolRejected, Epoch: ep, Tx: tx.ID, Label: reasonUnderpriced})
			return fmt.Errorf("mempool: replacement for nonce %d needs gas price > %d: %w (%w)",
				tx.Nonce, old.tx.GasPrice, ErrUnderpriced, dispatch.ErrNonceReplay)
		}
	}

	q.pending[tx.Nonce] = &entry{tx: tx, epoch: ep}
	parked := !q.contiguous(head, tx.Nonce)
	st.mu.Unlock()
	depth := p.size.Add(1)
	p.m.depth.Set(depth)
	p.m.admitted.Inc()
	if parked {
		p.m.parked.Inc()
	}
	p.rec.Record(obs.Event{Kind: obs.TxAdmitted, Epoch: ep, Tx: tx.ID, Flag: [2]bool{parked, false}})
	return nil
}

// evictCheapestTail finds the pool-wide cheapest chain tail (each
// sender's highest pending nonce — evicting mid-chain would open a
// gap) and removes it if newPrice strictly outbids it. The victim is
// chosen by (gas price asc, sender address desc), a total order over
// pool state, so eviction is deterministic for a given pool content.
// It returns the evicted transaction id (0 if a concurrent drain beat
// the removal) and whether room was made.
func (p *Pool) evictCheapestTail(newPrice uint64) (uint64, bool) {
	var (
		found     bool
		bestAddr  chain.Address
		bestNonce uint64
		bestPrice uint64
	)
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		for sender, q := range st.senders {
			if len(q.pending) == 0 {
				continue
			}
			var tail uint64
			for n := range q.pending {
				if n > tail {
					tail = n
				}
			}
			price := q.pending[tail].tx.GasPrice
			if !found || price < bestPrice ||
				(price == bestPrice && bytes.Compare(sender[:], bestAddr[:]) > 0) {
				found, bestAddr, bestNonce, bestPrice = true, sender, tail, price
			}
		}
		st.mu.Unlock()
	}
	if !found || newPrice <= bestPrice {
		return 0, false
	}
	st := p.stripeFor(bestAddr)
	st.mu.Lock()
	defer st.mu.Unlock()
	q := st.senders[bestAddr]
	if q == nil {
		return 0, true
	}
	e, ok := q.pending[bestNonce]
	if !ok {
		return 0, true
	}
	delete(q.pending, bestNonce)
	p.m.depth.Set(p.size.Add(-1))
	return e.tx.ID, true
}

// Requeue re-inserts transactions the pipeline deferred (gas-limit
// overflow) without admission checks — they were already admitted and
// must not be dropped — and rewinds each sender's progress watermark
// so they are drained again next epoch.
func (p *Pool) Requeue(txs []*chain.Tx) {
	if len(txs) == 0 {
		return
	}
	ep := p.epoch.Load()
	for _, tx := range txs {
		st := p.stripeFor(tx.From)
		st.mu.Lock()
		q := st.senders[tx.From]
		if q == nil {
			q = &senderQueue{pending: make(map[uint64]*entry)}
			st.senders[tx.From] = q
		}
		if _, ok := q.pending[tx.Nonce]; !ok {
			p.size.Add(1)
		}
		q.pending[tx.Nonce] = &entry{tx: tx, epoch: ep}
		if q.progress >= tx.Nonce {
			q.progress = tx.Nonce - 1
		}
		st.mu.Unlock()
	}
	p.m.requeued.Add(int64(len(txs)))
	p.m.depth.Set(p.size.Load())
}

// cursor walks one sender's ready chain during a drain.
type cursor struct {
	sender chain.Address
	q      *senderQueue
	nonce  uint64
	price  uint64
}

// drainHeap orders cursors by gas price (highest first), ties by
// sender address (lowest first); a sender appears at most once, at its
// lowest ready nonce, so nonce order within a sender is preserved.
type drainHeap []cursor

func (h drainHeap) Len() int { return len(h) }
func (h drainHeap) Less(i, j int) bool {
	if h[i].price != h[j].price {
		return h[i].price > h[j].price
	}
	return bytes.Compare(h[i].sender[:], h[j].sender[:]) < 0
}
func (h drainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *drainHeap) Push(x any)   { *h = append(*h, x.(cursor)) }
func (h *drainHeap) Pop() any     { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }

// DrainEpoch pulls the epoch's batch: every ready transaction (or the
// MaxBatch highest-priority ones), in gas-price order with per-sender
// nonce chains kept intact. It first evicts transactions older than
// MaxAgeEpochs. The batch is a deterministic function of the pending
// multiset and the committed nonces — arrival order never matters.
func (p *Pool) DrainEpoch(epoch uint64) []*chain.Tx {
	start := time.Now()
	p.epoch.Store(epoch)

	// DrainEpoch is the only path that holds multiple stripe locks
	// (always in index order); every other path holds at most one.
	for i := range p.stripes {
		p.stripes[i].mu.Lock()
	}

	var aged []uint64
	if p.cfg.MaxAgeEpochs > 0 {
		for i := range p.stripes {
			for _, q := range p.stripes[i].senders {
				for n, e := range q.pending {
					if epoch >= e.epoch+p.cfg.MaxAgeEpochs {
						delete(q.pending, n)
						p.size.Add(-1)
						aged = append(aged, e.tx.ID)
					}
				}
			}
		}
	}

	h := drainHeap{}
	for i := range p.stripes {
		for sender, q := range p.stripes[i].senders {
			if len(q.pending) == 0 {
				continue
			}
			committed, _ := p.nonces.NonceOf(sender)
			next := q.head(committed) + 1
			if e, ok := q.pending[next]; ok {
				h = append(h, cursor{sender: sender, q: q, nonce: next, price: e.tx.GasPrice})
			}
		}
	}
	heap.Init(&h)

	var batch []*chain.Tx
	for h.Len() > 0 && (p.cfg.MaxBatch <= 0 || len(batch) < p.cfg.MaxBatch) {
		c := heap.Pop(&h).(cursor)
		e := c.q.pending[c.nonce]
		delete(c.q.pending, c.nonce)
		c.q.progress = c.nonce
		p.size.Add(-1)
		batch = append(batch, e.tx)
		if nxt, ok := c.q.pending[c.nonce+1]; ok {
			heap.Push(&h, cursor{sender: c.sender, q: c.q, nonce: c.nonce + 1, price: nxt.tx.GasPrice})
		}
	}

	// Split what stays behind into still-ready (MaxBatch cut them off)
	// and parked (waiting on a nonce gap).
	ready := 0
	for i := range p.stripes {
		for sender, q := range p.stripes[i].senders {
			if len(q.pending) == 0 {
				continue
			}
			committed, _ := p.nonces.NonceOf(sender)
			for n := q.head(committed) + 1; ; n++ {
				if _, ok := q.pending[n]; !ok {
					break
				}
				ready++
			}
		}
	}
	remaining := int(p.size.Load())
	parked := remaining - ready

	for i := len(p.stripes) - 1; i >= 0; i-- {
		p.stripes[i].mu.Unlock()
	}

	// Map iteration visited aged entries in random order; sort by id so
	// the trace stays deterministic.
	sort.Slice(aged, func(i, j int) bool { return aged[i] < aged[j] })
	for _, id := range aged {
		p.m.evictAge.Inc()
		p.rec.Record(obs.Event{Kind: obs.TxEvicted, Epoch: epoch, Tx: id, Label: reasonAge})
	}

	took := time.Since(start)
	p.m.depth.Set(int64(remaining))
	p.m.batchSize.Observe(int64(len(batch)))
	p.m.drainTime.ObserveDuration(took)
	p.rec.Record(obs.Event{Kind: obs.MempoolDrained, Epoch: epoch, N: [4]int{len(batch), remaining, parked}, Took: took})
	return batch
}
