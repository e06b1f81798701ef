package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The traced run records its spans with the repository's own tracer,
// internal/obs: the benchmark opens an obs.Span around each call it
// makes into a layer (the program itself is not instrumented further),
// the ended spans collect in memory in a spanSink, and at the end they
// are written through obs.JSONLSink. The file therefore decodes with
// obs.Decoder, passes check.ReconcileSpans and renders with
// cntstat -spans. Each workload's traced side, each set-up and the
// probes are one trace each, rooted at a span named after them.

// Attribute keys the benchmark's spans carry.
const (
	// attrLabel names what a span worked on: a kernel, a variant, a job
	// kind or a trace format.
	attrLabel = "label"
	// attrN is a work count: accesses stepped, lines counted.
	attrN = "n"
)

// spanSink keeps every ended span in memory until the run writes them.
type spanSink struct {
	mu    sync.Mutex
	spans []*obs.SpanEvent
}

// Emit implements obs.Sink.
func (s *spanSink) Emit(e obs.Event) {
	if sp, ok := e.(*obs.SpanEvent); ok {
		s.mu.Lock()
		s.spans = append(s.spans, sp)
		s.mu.Unlock()
	}
}

func (s *spanSink) snapshot() []*obs.SpanEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*obs.SpanEvent(nil), s.spans...)
}

// child starts a span under parent labelled with label; under a nil
// parent (an untraced run) it is nil and costs nothing.
func child(parent *obs.Span, name, label string) *obs.Span {
	sp := parent.Child(name)
	if label != "" {
		sp.Annotate(attrLabel, label)
	}
	return sp
}

// endN ends sp with the work count n attached.
func endN(sp *obs.Span, n int64) { sp.AnnotateInt(attrN, n).End() }

func label(s *obs.SpanEvent) string { return s.Attrs[attrLabel] }

// count is the work count a span carries, 0 when it has none.
func count(s *obs.SpanEvent) int64 {
	n, _ := strconv.ParseInt(s.Attrs[attrN], 10, 64)
	return n
}

func dur(s *obs.SpanEvent) time.Duration { return time.Duration(s.Dur) }

// writeSpans stores spans as obs JSONL records.
func writeSpans(path string, spans []*obs.SpanEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	for _, s := range spans {
		sink.Emit(s)
	}
	if err := sink.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open range of Unix nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the total length of the union of ivs, each clipped to
// [lo, hi).
func covered(ivs []interval, lo, hi int64) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(0)
	for _, iv := range clipped {
		if iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	return time.Duration(total + curHi - curLo)
}

// children indexes spans by their parent's span ID.
func children(spans []*obs.SpanEvent) map[string][]*obs.SpanEvent {
	out := map[string][]*obs.SpanEvent{}
	for _, s := range spans {
		if s.Parent != "" {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// selfTimes maps span ID to its self time: its duration minus the part
// of it that its child spans cover. Concurrent children that overlap
// are counted once.
func selfTimes(spans []*obs.SpanEvent) map[string]time.Duration {
	kids := children(spans)
	out := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		var ivs []interval
		for _, c := range kids[s.Span] {
			ivs = append(ivs, interval{c.Start, c.EndNS()})
		}
		out[s.Span] = dur(s) - covered(ivs, s.Start, s.EndNS())
	}
	return out
}

// isLayer reports whether a span times a call into the program. Spans
// named after a workload ("replay", "replay.pass", ...) only group the
// benchmark's own loop and never count as layer time.
func isLayer(name string) bool {
	for _, w := range workloadNames {
		if name == w || strings.HasPrefix(name, w+".") {
			return false
		}
	}
	return true
}

// unaccountedShare is the share of root's wall time that no layer span
// of its trace covers: time spent in the benchmark's own loop, or in
// program code reached outside any timed call.
func unaccountedShare(spans []*obs.SpanEvent, root *obs.SpanEvent) float64 {
	if root.Dur <= 0 {
		return 1
	}
	var ivs []interval
	for _, s := range spans {
		if s != root && s.Trace == root.Trace && isLayer(s.Name) {
			ivs = append(ivs, interval{s.Start, s.EndNS()})
		}
	}
	return 1 - float64(covered(ivs, root.Start, root.EndNS()))/float64(root.Dur)
}

// selfTimesOf collects the self time of every span with the given name.
func selfTimesOf(spans []*obs.SpanEvent, self map[string]time.Duration, name string) []time.Duration {
	var times []time.Duration
	for _, s := range spans {
		if s.Name == name {
			times = append(times, self[s.Span])
		}
	}
	return times
}

// findRoot returns the last root span with the given name.
func findRoot(spans []*obs.SpanEvent, name string) (*obs.SpanEvent, error) {
	var root *obs.SpanEvent
	for _, s := range spans {
		if s.Parent == "" && s.Name == name {
			root = s
		}
	}
	if root == nil {
		return nil, fmt.Errorf("no %q span recorded", name)
	}
	return root, nil
}
