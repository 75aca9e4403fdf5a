package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// Journal is a Recorder that streams every event as one JSON line
// (JSONL). Each line carries a monotonically increasing sequence
// number, the sim-time stamp produced by the journal's clock, the event
// name, and the event's fields in a fixed order.
//
// The journal is safe for concurrent use; lines are written atomically
// under an internal mutex. Event interleaving across shards follows
// goroutine scheduling in the parallel pipeline — use the sequential
// pipeline when a deterministic journal is required (the golden-file
// test in internal/shard does).
type Journal struct {
	mu    sync.Mutex
	w     *bufio.Writer
	clock func() time.Duration
	seq   uint64
	buf   []byte
	err   error
	// ev holds the event being encoded, so the column encoders read it
	// through a pointer without moving every recorded Event to the heap.
	ev Event
}

// JournalOption configures a Journal.
type JournalOption func(*Journal)

// WithClock replaces the journal's sim-time source. The default clock
// is monotonic host time since the journal was created; tests inject a
// deterministic counter.
func WithClock(clock func() time.Duration) JournalOption {
	return func(j *Journal) { j.clock = clock }
}

// NewJournal creates a journal writing JSONL to w. Call Close (or
// Flush) when done — events are buffered.
func NewJournal(w io.Writer, opts ...JournalOption) *Journal {
	start := time.Now()
	j := &Journal{
		w:     bufio.NewWriter(w),
		clock: func() time.Duration { return time.Since(start) },
		buf:   make([]byte, 0, 256),
	}
	for _, o := range opts {
		o(j)
	}
	return j
}

// Flush writes buffered events through to the underlying writer and
// returns the first write error encountered so far.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// Close flushes the journal. The underlying writer is not closed (the
// journal does not own it).
func (j *Journal) Close() error { return j.Flush() }

// Record implements Recorder: one line with the sequence number, the
// clock's stamp, the event name, then the kind's keys in table order.
func (j *Journal) Record(e Event) {
	row := &kinds[e.Kind]
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	j.ev = e
	b := append(j.buf[:0], `{"seq":`...)
	b = strconv.AppendUint(b, j.seq, 10)
	b = append(b, `,"t_ns":`...)
	b = strconv.AppendInt(b, int64(j.clock()), 10)
	b = append(b, `,"event":"`...)
	b = append(b, row.name...)
	b = append(b, '"')
	for _, c := range row.cols {
		b = append(b, ',', '"')
		b = append(b, c.key...)
		b = append(b, '"', ':')
		b = c.enc(b, &j.ev)
	}
	b = append(b, "}\n"...)
	j.buf = b[:0]
	if _, err := j.w.Write(b); err != nil && j.err == nil {
		j.err = err
	}
}

// A column is one key of an event line and the encoder of the Event
// field it reads.
type column struct {
	key string
	enc func(b []byte, e *Event) []byte
}

var (
	colEpoch = column{"epoch", func(b []byte, e *Event) []byte { return strconv.AppendUint(b, e.Epoch, 10) }}
	colTx    = num("tx", func(e *Event) int64 { return int64(e.Tx) })
	colShard = num("shard", func(e *Event) int64 { return int64(e.Shard) })
	colTook  = num("took_ns", func(e *Event) int64 { return int64(e.Took) })
)

func num(key string, get func(*Event) int64) column {
	return column{key, func(b []byte, e *Event) []byte { return strconv.AppendInt(b, get(e), 10) }}
}

func text(key string, get func(*Event) string) column {
	return column{key, func(b []byte, e *Event) []byte { return strconv.AppendQuote(b, get(e)) }}
}

// count reads N[i], flag Flag[i], and label Label under key.
func count(key string, i int) column {
	return num(key, func(e *Event) int64 { return int64(e.N[i]) })
}

func flag(key string, i int) column {
	return column{key, func(b []byte, e *Event) []byte { return strconv.AppendBool(b, e.Flag[i]) }}
}

func label(key string) column {
	return text(key, func(e *Event) string { return e.Label })
}
