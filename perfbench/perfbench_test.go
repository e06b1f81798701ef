package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/obs"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample is not NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{20, 50, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := supportedPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("supportedPercentile(%d) = p%g %v, want p%g %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	// The rule holds by construction: at least ten samples lie strictly
	// above the reported percentile's rank.
	for n := 20; n <= 3000; n++ {
		p, _ := supportedPercentile(n)
		if beyond := n - rankIndex(p, n) - 1; beyond < 10 {
			t.Fatalf("n=%d: p%g has %d samples beyond it", n, p, beyond)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
}

// ms10 builds a span record from millisecond offsets; ids are single
// hex digits, parent "" for a root.
func ms10(trace, id, parent, name string, lo, hi int) *obs.SpanEvent {
	pad := func(s string, n int) string {
		if s == "" {
			return ""
		}
		return strings.Repeat("0", n-len(s)) + s
	}
	return &obs.SpanEvent{Trace: pad(trace, 32), Span: pad(id, 16), Parent: pad(parent, 16), Name: name,
		Start: int64(lo) * 1e6, Dur: int64(hi-lo) * 1e6}
}

func TestSelfTimes(t *testing.T) {
	spans := []*obs.SpanEvent{
		ms10("1", "1", "", "serve", 0, 100),
		ms10("1", "2", "1", "server.wait", 10, 40),
		ms10("1", "3", "1", "server.wait", 30, 60), // overlaps its sibling: a second client
		ms10("1", "4", "2", "check.report", 15, 20),
		ms10("1", "5", "4", "deeper", 16, 18), // a grandchild is not subtracted twice
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"1": 50, "2": 25, "3": 30, "4": 3, "5": 2}
	for id, w := range want {
		if got := self[strings.Repeat("0", 15)+id]; got != w*time.Millisecond {
			t.Errorf("self time of span %s = %v, want %vms", id, got, w)
		}
	}
}

func TestUnaccountedShare(t *testing.T) {
	spans := []*obs.SpanEvent{
		ms10("1", "1", "", "replay", 0, 100),
		ms10("1", "2", "1", "replay.pass", 0, 90), // groups the loop, covers nothing
		ms10("1", "3", "2", "core.step", 10, 50),
		ms10("1", "4", "2", "core.finish", 40, 55), // overlaps core.step by 10
		ms10("1", "5", "1", "check.replay", 60, 70),
		ms10("1", "6", "1", "core.step", 95, 120), // clipped to the root
		ms10("2", "7", "", "regen", 0, 100),
		ms10("2", "8", "7", "experiments.E1", 0, 100), // another trace's layer
	}
	if got := unaccountedShare(spans, spans[0]); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("unaccounted share = %g, want 0.4", got)
	}
	if got := unaccountedShare(spans, spans[6]); got != 0 {
		t.Errorf("fully covered root: unaccounted share = %g, want 0", got)
	}
	if got := unaccountedShare(spans, ms10("3", "9", "", "serve", 5, 5)); got != 1 {
		t.Errorf("empty root: unaccounted share = %g, want 1", got)
	}
}

// TestSpansRecordedThroughObs records spans the way a traced run does
// and checks they reach the sink as obs span records that reconcile,
// carry their label and count, and survive the JSONL round trip.
func TestSpansRecordedThroughObs(t *testing.T) {
	sink := &spanSink{}
	tr := obs.NewTracerSeeded(sink, 1)
	root := tr.StartSpan("replay", obs.SpanContext{})
	sp := child(root, "core.step", "baseline")
	endN(sp, 42)
	root.End()
	spans := sink.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans recorded, want 2", len(spans))
	}
	step := spans[0]
	if step.Parent != spans[1].Span || label(step) != "baseline" || count(step) != 42 {
		t.Errorf("step span %+v", step)
	}
	if err := check.ReconcileSpans([]obs.Event{spans[0], spans[1]}); err != nil {
		t.Error(err)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil || len(events) != 2 {
		t.Fatalf("read back %d events: %v", len(events), err)
	}
	// Nothing is recorded, and nothing allocated, under a nil parent.
	if allocs := testing.AllocsPerRun(100, func() { endN(child(nil, "core.step", "baseline"), 1) }); allocs != 0 {
		t.Errorf("untraced span calls allocate %g times", allocs)
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "serve", "--seed", "42", "--seconds", "7", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o != (options{workload: "serve", seed: 42, seconds: 7, trace: true}) {
		t.Errorf("parsed %+v", o)
	}
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "replay", "--seed", "x"},
		{"--workload", "replay", "--seed", "1.5"},
		{"--workload", "replay", "--seconds", "0"},
		{"--workload", "replay", "--seconds", "61"},
		{"--workload", "replay", "--trace", "2"},
		{"--workload", "replay", "extra"},
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("parseArgs(%q) accepted", args)
		}
	}
}

// smokeBench sets up a bench at seed 1 against the repository root.
func smokeBench(t *testing.T, workload string) *bench {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs simulate the suite")
	}
	b, err := newBench(options{workload: workload, seed: 1, seconds: 1}, "..")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.close)
	if _, err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	return b
}

func checkOutcomes(t *testing.T, b *bench) {
	t.Helper()
	attempted, failed := b.out.counts()
	if attempted == 0 || failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", attempted, failed, b.out.msgs)
	}
}

// Every ten jobs a deck deals hold exactly the mix weights, and every
// shape of a kind comes once before any comes again; the seed orders
// them and nothing else.
func TestMixDeck(t *testing.T) {
	byKind := map[string][]*serveSpec{}
	for kind, n := range map[string]int{"run": 10, "compare": 10, "trace": 2} {
		for i := 0; i < n; i++ {
			byKind[kind] = append(byKind[kind], &serveSpec{kind: kind})
		}
	}
	deal := func(seed int64) []*serveSpec {
		d := newMixDeck(seed, byKind)
		out := make([]*serveSpec, 100)
		for i := range out {
			out[i] = d.next()
		}
		return out
	}
	a, b, c := deal(1), deal(1), deal(2)
	seen := map[*serveSpec]int{}
	for block := 0; block < 10; block++ {
		kinds := map[string]int{}
		for _, e := range a[block*10 : block*10+10] {
			kinds[e.kind]++
			seen[e]++
		}
		if kinds["run"] != weightRun || kinds["compare"] != weightCompare || kinds["trace"] != weightTrace {
			t.Fatalf("block %d deals %v", block, kinds)
		}
	}
	for kind, shapes := range byKind {
		per := len(a) * map[string]int{"run": weightRun, "compare": weightCompare, "trace": weightTrace}[kind] / 10 / len(shapes)
		for _, e := range shapes {
			if seen[e] != per {
				t.Errorf("%s shape dealt %d times in 100 jobs, want %d", kind, seen[e], per)
			}
		}
	}
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same || !differ {
		t.Errorf("same seed deals the same jobs: %v; another seed deals others: %v", same, differ)
	}
}

func TestSmokeReplay(t *testing.T) {
	b := smokeBench(t, "replay")
	if err := b.replay.warm(); err != nil {
		t.Fatal(err)
	}
	if pairs := b.replay.measure(0, 1, nil); pairs != 1 {
		t.Fatalf("ran %d pairs, want 1", pairs)
	}
	checkOutcomes(t, b)
	if len(b.replay.rates["cnt-cache"]) != 1 || len(b.replay.rates["baseline"]) != 1 {
		t.Fatalf("rates %v", b.replay.rates)
	}
}

func TestSmokeRegen(t *testing.T) {
	b := smokeBench(t, "regen")
	b.regen.measure(0, 1, nil)
	checkOutcomes(t, b)
	if len(b.regen.walls) != 1 || b.regen.accesses == 0 {
		t.Fatalf("walls %v, accesses %d", b.regen.walls, b.regen.accesses)
	}
}

func TestSmokeServe(t *testing.T) {
	b := smokeBench(t, "serve")
	if err := b.serve.prepare(); err != nil {
		t.Fatal(err)
	}
	if n := b.serve.measure(0, 12, nil); n < 12 {
		t.Fatalf("ran %d jobs, want at least 12", n)
	}
	checkOutcomes(t, b)
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestRecordMatchesBenchmarkJSON runs the whole benchmark once each way
// and checks the last line is the record format the harness reads, carrying
// exactly the metrics BENCHMARK.json lists, with their units.
func TestRecordMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark twice")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var stdout, stderr bytes.Buffer
		code := execute([]string{"--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", tc.trace}, "..", &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rec struct {
			Correct   bool                       `json:"correct"`
			Attempted int64                      `json:"attempted"`
			Failed    int64                      `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("trace %s: last line %q: %v", tc.trace, lines[len(lines)-1], err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d\n%s", tc.trace, rec.Correct, rec.Attempted, rec.Failed, stdout.String())
		}
		var got, want []string
		for name, raw := range rec.Metrics {
			var m metric
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range tc.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("trace %s metrics:\n%s\nwant:\n%s", tc.trace, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
