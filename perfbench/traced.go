package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// traced is the layer run. It records a span around every call into a
// layer, keeps the spans in memory and writes them out at the end. Each
// workload runs the same amount of work untraced and traced, so the
// traced side's cost over the untraced one is the tracing overhead;
// the per-layer metrics come from the traced side and from the probes,
// except the per-kind serve latencies, which like every end-to-end
// timing are taken with tracing off.
func (b *bench) traced() (*result, error) {
	res := &result{metrics: map[string]metric{}}
	sink := &spanSink{}
	tr := obs.NewTracerSeeded(sink, b.opt.seed)
	if _, err := b.setup(tr); err != nil {
		return nil, err
	}
	if err := b.prepare(); err != nil {
		return nil, err
	}
	walls := map[string][2]time.Duration{}
	// alternate runs f once per entry of order, untraced (false) or
	// traced (true) under the workload's root span, and sums the wall
	// times of each side. Orders like untraced-traced-traced-untraced
	// let drift in the host's speed fall on both sides alike.
	alternate := func(name string, order []bool, f func(parent *obs.Span)) {
		var w [2]time.Duration
		var root *obs.Span
		for _, traced := range order {
			if !traced && root != nil {
				root.End()
				root = nil
			}
			if root == nil {
				runtime.GC()
			}
			var parent *obs.Span
			side := 0
			if traced {
				if root == nil {
					root = b.rootSpan(tr, name)
				}
				parent, side = root, 1
			}
			t0 := time.Now()
			f(parent)
			w[side] += time.Since(t0)
		}
		root.End()
		walls[name] = w
	}
	abba := []bool{false, true, true, false}
	var pairs, jobs int
	alternate("replay", abba, func(parent *obs.Span) {
		if pairs == 0 {
			pairs = b.replay.measure(b.budget("replay")/4, ceilDiv(minReplayPairs, 2), parent)
			return
		}
		b.replay.measure(0, pairs, parent)
	})
	// A regeneration is one long unit: one untraced, one traced.
	alternate("regen", []bool{false, true}, func(parent *obs.Span) { b.regen.measure(0, 1, parent) })
	if err := b.serve.warm(); err != nil {
		return nil, err
	}
	b.serve.untracedLat = map[string][]float64{}
	alternate("serve", abba, func(parent *obs.Span) {
		if jobs == 0 {
			jobs = b.serve.measure(b.budget("serve")/4, ceilDiv(minServeJobs, 2), parent)
		} else {
			b.serve.measure(0, jobs, parent)
		}
		// Per-kind latencies come from the untraced runs only.
		if parent == nil {
			for kind, l := range b.serve.lat {
				b.serve.untracedLat[kind] = append(b.serve.untracedLat[kind], l...)
			}
		}
		b.serve.lat = map[string][]float64{}
	})

	probes := b.rootSpan(tr, "probes")
	res.set("cache.access_ns", b.probeCache(probes), "ns")
	ones, perPart := b.probeBitutil(probes)
	res.set("bitutil.ones_ns_per_line", ones, "ns")
	res.set("bitutil.ones_per_partition_ns_per_line", perPart, "ns")
	res.set("predictor.record_ns", b.probePredictor(probes), "ns")
	res.set("trace.decode_ns_per_access.binary", b.probeDecode("binary", probes), "ns")
	res.set("trace.decode_ns_per_access.text", b.probeDecode("text", probes), "ns")
	res.set("run.session_overhead_us", b.probeSession(probes), "us")
	res.set("run.render_us", b.probeRender(probes), "us")
	res.set("server.sched_submit_ms", b.probeSchedSubmit(probes), "ms")
	res.set("core.observed_over_plain", b.probeObserved(probes), "ratio")
	probes.End()

	spans := sink.snapshot()
	// The span file must hold up to the audit every span trace in the
	// repository passes.
	b.out.attempt(1)
	events := make([]obs.Event, len(spans))
	for i, s := range spans {
		events[i] = s
	}
	if err := check.ReconcileSpans(events); err != nil {
		b.out.fail("spans: %v", err)
	}
	if err := b.layerMetrics(res, spans, walls); err != nil {
		return nil, err
	}
	path := filepath.Join(b.root, buildDir, "perfbench",
		fmt.Sprintf("spans-%s-seed%d.jsonl", b.opt.workload, b.opt.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.note("%d spans written to %s", len(spans), path)
	return res, nil
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// medianOf returns the median of ds in the unit conv gives.
func medianOf(ds []time.Duration, conv func(time.Duration) float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = conv(d)
	}
	return median(xs)
}

// layerMetrics derives the per-layer metrics from the spans.
func (b *bench) layerMetrics(res *result, spans []*obs.SpanEvent, walls map[string][2]time.Duration) error {
	self := selfTimes(spans)
	kids := children(spans)

	// workload: the suite build of one set-up.
	var builds []float64
	for _, s := range spans {
		if s.Name == "setup" {
			var total time.Duration
			for _, c := range kids[s.Span] {
				if c.Name == "workload.build" {
					total += self[c.Span]
				}
			}
			builds = append(builds, ms(total))
		}
	}
	res.set("workload.build_ms", median(builds), "ms")

	// core: per-simulation costs and per-pass step cost per access.
	newsim := selfTimesOf(spans, self, "core.newsim")
	res.set("core.newsim_us", medianOf(newsim, us), "us")
	finish := selfTimesOf(spans, self, "core.finish")
	res.set("core.finish_us", medianOf(finish, us), "us")
	stepNS := map[string][]float64{}
	for _, p := range spans {
		if p.Name != "replay.pass" {
			continue
		}
		var busy time.Duration
		var n int64
		for _, c := range kids[p.Span] {
			if c.Name == "core.step" {
				busy += self[c.Span]
				n += count(c)
			}
		}
		stepNS[label(p)] = append(stepNS[label(p)], float64(busy.Nanoseconds())/float64(n))
	}
	res.set("core.step_ns_per_access.cnt-cache", median(stepNS["cnt-cache"]), "ns")
	res.set("core.step_ns_per_access.baseline", median(stepNS["baseline"]), "ns")
	res.set("core.cnt_over_baseline", median(stepNS["cnt-cache"])/median(stepNS["baseline"]), "ratio")
	var hits, accesses uint64
	for _, rep := range b.replay.ref {
		hits += rep.DStats.Hits
		accesses += rep.DStats.Accesses
	}
	res.set("core.l1d_hit_ratio.replay", float64(hits)/float64(accesses), "ratio")
	res.set("core.l1d_hit_ratio.serve", float64(b.serve.l1dHits)/float64(b.serve.l1dAccesses), "ratio")

	// run and experiments: the traced regeneration.
	res.set("run.memo_hit_ratio", b.regen.memoHit, "ratio")
	for _, e := range experiments.Registry() {
		ds := selfTimesOf(spans, self, "experiments."+e.ID)
		res.set("experiments."+e.ID+"_s", medianOf(ds, time.Duration.Seconds), "s")
	}

	// server: the traced serve side, and the untraced side's latencies.
	sv := b.serve
	submit := selfTimesOf(spans, self, "server.http_submit")
	res.set("server.http_submit_ms", medianOf(submit, ms), "ms")
	get := selfTimesOf(spans, self, "server.report_get")
	res.set("server.report_get_ms", medianOf(get, ms), "ms")
	res.set("server.queue_ms", median(sv.queueMS), "ms")
	res.set("server.run_ms", median(sv.runMS), "ms")
	for _, kind := range []string{"run", "compare", "trace"} {
		res.set("server.latency_ms_p50."+kind, percentile(sv.untracedLat[kind], 50), "ms")
	}
	res.set("server.reject_ratio", float64(sv.rejected.Load())/float64(sv.submitted.Load()), "ratio")

	// Tracing itself: coverage and overhead per workload.
	for _, w := range workloadNames {
		root, err := findRoot(spans, w)
		if err != nil {
			return err
		}
		res.set("unaccounted_share."+w, unaccountedShare(spans, root), "ratio")
		wl := walls[w]
		res.set("trace_overhead."+w, wl[1].Seconds()/wl[0].Seconds(), "ratio")
	}
	res.set("error_rate", b.errorRate(), "ratio")
	return nil
}
