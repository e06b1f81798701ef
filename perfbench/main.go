// Command perfbench is the repository benchmark. One run drives all
// three workloads — replay (the simulator core), regen (a full E1–E15
// regeneration) and serve (cntd over loopback HTTP) — from one process,
// checks every output, and prints every metric by name and unit. The
// workload named on the command line gets 60% of the run's time and the
// other two 20% each, so every end-to-end metric is measured on every
// run. With --trace 1 the run records a span around each layer
// call, writes the spans out at the end and prints the per-layer
// metrics derived from them instead.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/run"
)

// workloadNames lists the workloads in the order a run drives them.
var workloadNames = []string{"replay", "regen", "serve"}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "focus workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (kernel data, serve job order)")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 records layer spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, w := range workloadNames {
		known = known || o.workload == w
	}
	if !known {
		return o, fmt.Errorf("-workload must be one of %s, got %q", strings.Join(workloadNames, ", "), o.workload)
	}
	if o.seconds < 1 || o.seconds > 60 {
		return o, fmt.Errorf("-seconds must be in [1,60], got %d", o.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	return o, nil
}

func main() { os.Exit(execute(os.Args[1:], ".", os.Stdout, os.Stderr)) }

// execute performs one benchmark run against the checkout at root and
// returns the exit code. A run whose outputs fail their checks still
// exits 0 and reports correct=false; only a run that cannot measure at
// all exits non-zero, without printing a result.
func execute(args []string, root string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b, err := newBench(o, root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer b.close()
	var res *result
	if o.trace {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err == nil {
		err = b.report(res, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	metrics map[string]metric
	// notes are human-readable lines printed before the record: sample
	// counts, spreads and supported percentiles.
	notes []string
}

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// record is the final stdout line.
type record struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcomes counts operations attempted and failed across every
// workload; failure messages are kept for the report.
type outcomes struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	msgs      []string
}

func (o *outcomes) attempt(n int) {
	o.mu.Lock()
	o.attempted += int64(n)
	o.mu.Unlock()
}

// fail counts one failed operation.
func (o *outcomes) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.msgs) < 20 {
		o.msgs = append(o.msgs, fmt.Sprintf(format, args...))
	}
}

func (o *outcomes) counts() (attempted, failed int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.attempted, o.failed
}

// bench is one run's state.
type bench struct {
	opt  options
	root string
	// work is the run's temporary directory inside the checkout's build
	// directory: trace files, the daemon's state, the span output.
	work string
	// jobs is the parallelism every workload is held to: one worker per
	// CPU the process may use.
	jobs int
	fp   fingerprint
	out  outcomes

	replay *replayWL
	regen  *regenWL
	serve  *serveWL
}

// buildDir is where building and running leave their artifacts; the
// repository's .gitignore names it.
const buildDir = ".bench_build"

func newBench(o options, root string) (*bench, error) {
	base := filepath.Join(root, buildDir, "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{opt: o, root: root, work: work, jobs: runtime.GOMAXPROCS(0), fp: machine()}
	b.replay = &replayWL{b: b}
	b.regen = &regenWL{b: b}
	b.serve = &serveWL{b: b}
	return b, nil
}

// close stops the daemon and removes the run's temporary files.
func (b *bench) close() {
	b.serve.teardown()
	os.RemoveAll(b.work)
}

// budget is a workload's share of the run's seconds: the focus
// workload gets 60%, the other two 20% each. Every workload also has a
// floor of work it always completes, so a short run stays valid.
func (b *bench) budget(workload string) time.Duration {
	share := 0.2
	if workload == b.opt.workload {
		share = 0.6
	}
	return time.Duration(share * float64(b.opt.seconds) * float64(time.Second))
}

// setupReps is how many times a run sets every workload up; setup_s is
// the median, so one slow disk flush does not move it.
const setupReps = 9

// rootSpan opens the root span of one trace of a traced run, carrying
// the run's identity and machine fingerprint; with tracing off (a nil
// tracer) it is nil.
func (b *bench) rootSpan(tr *obs.Tracer, name string) *obs.Span {
	sp := tr.StartSpan(name, obs.SpanContext{})
	if sp != nil {
		sp.Annotate("workload", b.opt.workload).AnnotateInt("seed", b.opt.seed)
		b.fp.annotate(sp)
	}
	return sp
}

// setup builds the replay instances, writes the serve trace files and
// boots the daemon setupReps times, keeping the last set, and returns
// the median wall time of one set-up.
func (b *bench) setup(tr *obs.Tracer) (float64, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		b.serve.teardown()
		runtime.GC()
		root := b.rootSpan(tr, "setup")
		t0 := time.Now()
		b.replay.setup(root)
		if err := b.serve.setup(root); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		root.End()
	}
	return median(times), nil
}

// prepare runs the untimed work every run needs before measuring: the
// replay reference pass and the serve expected reports.
func (b *bench) prepare() error {
	if err := b.replay.warm(); err != nil {
		return err
	}
	return b.serve.prepare()
}

// rounds is how many times an untraced run cycles through the three
// workloads. The host's speed drifts over tens of seconds, so each
// workload samples the whole run in slices instead of one window of it.
const rounds = 3

// heapStats reads the allocator counters the memory metrics use.
func heapStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// untraced is the measuring run: tracing off, every end-to-end metric.
func (b *bench) untraced() (*result, error) {
	res := &result{metrics: map[string]metric{}}
	setupS, err := b.setup(nil)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS, "s")
	if err := b.prepare(); err != nil {
		return nil, err
	}
	// Each slice starts with a fixed share of its workload's work — the
	// same on every run of a seed — and only that share feeds the two
	// memory metrics: counted charges the bytes a replay or regen share
	// allocates, and the accesses it simulates, to alloc_b_per_access,
	// and sampleHeap collects and reads the live heap after every share
	// for peak_heap_mb. The rest of a slice tops its workload up to its
	// share of the time so far (a regen repetition that overran one
	// round is paid back in the next); it is timed but not counted, so
	// neither memory figure moves with the host's speed.
	var allocs, accesses, peak uint64
	sampleHeap := func() {
		runtime.GC()
		peak = max(peak, heapStats().HeapAlloc)
	}
	counted := func(total *uint64, f func()) {
		a0, m0 := *total, heapStats().TotalAlloc
		f()
		allocs += heapStats().TotalAlloc - m0
		accesses += *total - a0
		sampleHeap()
	}
	spent := map[string]time.Duration{}
	// Every slice starts on a collected heap, so none pays for the
	// garbage of the one before it.
	slice := func(w string, i int, fixed func(), topUp func(time.Duration)) {
		runtime.GC()
		t0 := time.Now()
		due := b.budget(w)*time.Duration(i+1)/rounds - spent[w]
		fixed()
		topUp(due - time.Since(t0))
		spent[w] += time.Since(t0)
	}
	for i := 0; i < rounds; i++ {
		rp, rg, sv := b.replay, b.regen, b.serve
		slice("replay", i,
			func() { counted(&rp.accesses, func() { rp.measure(0, ceilDiv(minReplayPairs, rounds), nil) }) },
			func(d time.Duration) { rp.measure(d, 0, nil) })
		slice("regen", i,
			func() { counted(&rg.accesses, func() { rg.measure(0, 1, nil) }) },
			func(d time.Duration) { rg.measure(d, 0, nil) })
		// Empty what the regeneration left in the memo caches, so the
		// replay slices of every round, the first included, run on the
		// same small live heap rather than on one the collector must
		// mark through every cycle; the serve slice warms what it needs.
		run.ResetMemo()
		if err := sv.warm(); err != nil {
			return nil, err
		}
		// The scheduler keeps every job it has run, so every serve slice
		// starts on a daemon that has run none, the heap is read after
		// the slice's fixed number of jobs, and the daemon is replaced
		// before the next round's heap readings: no reading depends on
		// how many jobs the time allowed.
		slice("serve", i,
			func() { sv.measure(0, ceilDiv(minServeJobs, rounds), nil); sampleHeap() },
			func(d time.Duration) { sv.measure(d, 0, nil) })
		if i < rounds-1 {
			if err := sv.reboot(); err != nil {
				return nil, err
			}
		}
	}

	rp := b.replay
	cnt, base := rp.rates["cnt-cache"], rp.rates["baseline"]
	res.set("replay_maccess_s", median(cnt)/1e6, "Maccess/s")
	res.set("replay_baseline_maccess_s", median(base)/1e6, "Maccess/s")
	res.note("replay: %d cnt-cache and %d baseline suite passes of %d accesses; pass-to-pass spread %.3f / %.3f",
		len(cnt), len(base), rp.passAccesses, spread(cnt), spread(base))

	res.set("regen_s", median(b.regen.walls), "s")
	res.note("regen: %d repetitions; spread %.3f", len(b.regen.walls), spread(b.regen.walls))

	lat := b.serve.allLatencies()
	res.set("serve_p50_ms", percentile(lat, 50), "ms")
	res.set("serve_p95_ms", percentile(lat, 95), "ms")
	res.set("serve_jobs_s", float64(len(lat))/b.serve.wall.Seconds(), "jobs/s")
	p, ok := supportedPercentile(len(lat))
	res.note("serve: %d jobs from %d closed-loop clients; highest percentile with >= 10 samples beyond it: p%g (%v)",
		len(lat), serveClients, p, ok)

	res.set("alloc_b_per_access", float64(allocs)/float64(accesses), "B/access")
	res.set("peak_heap_mb", float64(peak)/(1<<20), "MiB")
	res.note("alloc_b_per_access counts %d replay pass pairs and %d regen repetitions; peak_heap_mb is the largest live heap after a collection following each slice's fixed share",
		rounds*ceilDiv(minReplayPairs, rounds), rounds)
	return res, nil
}

// report writes the notes, every metric with its unit, the machine
// fingerprint and any failures as comment lines, then the record as the
// last line. A metric that could not be measured (NaN) is an error, not
// a record.
func (b *bench) report(res *result, w io.Writer) error {
	attempted, failed := b.out.counts()
	line, err := json.Marshal(record{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: res.metrics})
	if err != nil {
		return fmt.Errorf("encoding the record: %w", err)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(w, "# %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fp, err := json.Marshal(b.fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# fingerprint %s\n", fp)
	for _, m := range b.out.msgs {
		fmt.Fprintln(w, "# FAILED:", m)
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// errorRate is failed over attempted operations across the run.
func (b *bench) errorRate() float64 {
	attempted, failed := b.out.counts()
	if attempted == 0 {
		return math.NaN()
	}
	return float64(failed) / float64(attempted)
}
