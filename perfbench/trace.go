package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// spanID indexes a tracer's span table; noSpan is the parent of a root
// and the id a nil tracer hands out.
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer: its name, its interval as
// offsets from the tracer's origin, and the span that made the call.
type span struct {
	name       string
	parent     spanID
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span of a run in memory; they are written out
// when the run ends. A nil *tracer records nothing, so untraced epochs
// and requests pass nil and pay only a nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent spanID) spanID {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: now})
	return spanID(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, such as a
// visibility wait that another goroutine observes.
func (t *tracer) add(name string, parent spanID, start, end time.Time) spanID {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start.Sub(t.origin), end: end.Sub(t.origin)})
	return spanID(len(t.spans) - 1)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// interval is a half-open stretch [lo, hi) of trace time.
type interval struct{ lo, hi time.Duration }

// spanTree indexes spans by parent and computes self times.
type spanTree struct {
	spans    []span
	children [][]spanID
	self     []time.Duration
}

// buildTree computes every span's self time: its duration minus the
// part of its interval covered by the union of its direct children.
// Children that run in parallel (one per shard) count once where they
// overlap, so a parent's self time is never negative.
func buildTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: make([][]spanID, len(spans)), self: make([]time.Duration, len(spans))}
	for i, s := range spans {
		if s.parent != noSpan {
			t.children[s.parent] = append(t.children[s.parent], spanID(i))
		}
	}
	for i, s := range spans {
		covered := time.Duration(0)
		for _, iv := range t.union(spanID(i)) {
			covered += iv.hi - iv.lo
		}
		t.self[i] = s.dur() - covered
	}
	return t
}

// union returns the merged intervals of a span's direct children,
// clipped to the span and sorted by start.
func (t *spanTree) union(id spanID) []interval {
	p := t.spans[id]
	var ivs []interval
	for _, c := range t.children[id] {
		lo, hi := t.spans[c].start, t.spans[c].end
		if lo < p.start {
			lo = p.start
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var out []interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// roots returns the ids of the spans named name that have no parent.
func (t *spanTree) roots(name string) []spanID {
	var ids []spanID
	for i, s := range t.spans {
		if s.parent == noSpan && s.name == name {
			ids = append(ids, spanID(i))
		}
	}
	return ids
}

// selfByName sums the self times of a root's descendants by span name;
// the root's own self time is its untimed gap and is left out.
func (t *spanTree) selfByName(root spanID) map[string]time.Duration {
	out := make(map[string]time.Duration)
	var walk func(id spanID)
	walk = func(id spanID) {
		for _, c := range t.children[id] {
			out[t.spans[c].name] += t.self[c]
			walk(c)
		}
	}
	walk(root)
	return out
}

// childDurations returns the durations of a root's descendants named
// name, in recording order.
func (t *spanTree) childDurations(root spanID, name string) []time.Duration {
	var out []time.Duration
	var walk func(id spanID)
	walk = func(id spanID) {
		for _, c := range t.children[id] {
			if t.spans[c].name == name {
				out = append(out, t.spans[c].dur())
			}
			walk(c)
		}
	}
	walk(root)
	return out
}

// gapTolerance is how much of a root span its children may leave
// untimed: the larger of 1 ms and 3% of the root. Below that, the gap
// is the benchmark's own bookkeeping between calls (and any GC pause that
// lands there).
func gapTolerance(root time.Duration) time.Duration {
	tol := root * 3 / 100
	if tol < time.Millisecond {
		tol = time.Millisecond
	}
	return tol
}

// coverage checks that the children of every root named name account
// for the root's whole interval up to gapTolerance. It returns the
// largest untimed share seen and one message per root that fails,
// naming the longest gap by the spans on either side of it.
func (t *spanTree) coverage(name string) (worst float64, problems []string) {
	for _, id := range t.roots(name) {
		root := t.spans[id]
		if root.dur() <= 0 {
			continue
		}
		untimed := t.self[id]
		if share := float64(untimed) / float64(root.dur()); share > worst {
			worst = share
		}
		if untimed <= gapTolerance(root.dur()) {
			continue
		}
		problems = append(problems, fmt.Sprintf("%s span at %.1f ms: %.3f ms of %.3f ms untimed, longest gap %s",
			name, ms(root.start), ms(untimed), ms(root.dur()), t.longestGap(id)))
	}
	return worst, problems
}

// longestGap names the longest stretch of a span that no child covers.
func (t *spanTree) longestGap(id spanID) string {
	p := t.spans[id]
	covered := t.union(id)
	best, before, after := time.Duration(-1), "start", "end"
	prevEnd, prevName := p.start, "start"
	consider := func(lo, hi time.Duration, next string) {
		if hi-lo > best {
			best, before, after = hi-lo, prevName, next
		}
	}
	for _, iv := range covered {
		consider(prevEnd, iv.lo, t.childAt(id, iv.lo, true))
		prevEnd, prevName = iv.hi, t.childAt(id, iv.hi, false)
	}
	consider(prevEnd, p.end, "end")
	return fmt.Sprintf("%.3f ms between %s and %s", ms(best), before, after)
}

// childAt names the child of id that starts (start=true) or ends at
// the given offset.
func (t *spanTree) childAt(id spanID, at time.Duration, start bool) string {
	for _, c := range t.children[id] {
		s := t.spans[c]
		if (start && s.start == at) || (!start && s.end == at) {
			return s.name
		}
	}
	return "?"
}
