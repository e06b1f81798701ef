package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// serveWL is cntd in-process — scheduler with a journaled state
// directory, the HTTP handler on a loopback port — driven by
// serveClients closed-loop clients. Each client submits a job, waits
// for it, and fetches its text report; latency runs from the POST to
// the last byte of the report.
type serveWL struct {
	b *bench

	dir   string
	state string // the running daemon's state directory
	sched *server.Scheduler
	http  *server.HTTP
	base  string
	// traces are the trace files written in set-up, by format, and
	// traceSource the streams written to them.
	traces      map[string]string
	traceSource map[string][]trace.Access

	catalogue []*serveSpec
	byKind    map[string][]*serveSpec
	// decks deal each client's job sequence; they live across the run's
	// slices so every slice continues the seeded sequence.
	decks  []*mixDeck
	client *http.Client

	mu sync.Mutex
	// lat holds end-to-end latencies in ms by job kind; a traced run
	// collects its untraced side's into untracedLat.
	lat, untracedLat map[string][]float64
	// queueMS and runMS come from the status documents (traced runs).
	queueMS, runMS []float64
	wall           time.Duration
	submitted      atomic.Int64
	rejected       atomic.Int64
	// hits and accesses sum the L1D counters of the served specs.
	l1dHits, l1dAccesses uint64
}

// traceKernels are the kernels written out as trace files, one per
// format: mm's reads of zero-heavy integers in binary, list's mix of
// pointer, metadata and payload writes in text.
var traceKernels = map[string]string{"binary": "mm", "text": "list"}

// traceAccesses is how much of each kernel's stream its trace file
// holds. The daemon keeps every finished job's decoded instance in
// memory, so full-length traces would grow a run's heap by megabytes
// per trace job; a prefix keeps the decode path in the mix at a size
// the run can afford.
const traceAccesses = 2048

// serveSpec is one job shape of the mix with its expected report and
// the in-process result it was rendered from.
type serveSpec struct {
	kind   string // run, compare or trace
	mode   string
	spec   []byte
	expect []byte

	inst *workload.Instance
	rep  *run.Report      // mode run
	cmp  *core.Comparison // mode compare
}

// mix weights: each client's every ten jobs hold exactly this many of
// each kind. They are an assumption, not a measurement: no record of
// real cntd traffic exists to draw them from. Most jobs are kernel
// runs, whose instances the memo serves, so serving overhead shows;
// compares and trace-sourced runs cover fan-out and trace decode. The
// blended serve percentiles depend on these weights; the per-kind
// medians (server.latency_ms_p50.<kind>) do not.
const (
	weightRun     = 7
	weightCompare = 2
	weightTrace   = 1
)

// serveClients is how many closed-loop clients drive the daemon. One:
// with a client per CPU, two jobs and their HTTP exchanges contend for
// the two CPUs of the reference host, and the latencies measured how
// much of the second CPU the host's other tenants left, which moved
// serve_jobs_s by a third between runs while single-threaded replay
// moved by a tenth. A compare job still fans its cells out over every
// CPU, as run.Session does by default.
const serveClients = 1

// minServeJobs is the floor of jobs a run completes: at 200, ten
// samples lie beyond the 95th percentile.
const minServeJobs = 200

// setup writes the trace files and boots the daemon.
func (s *serveWL) setup(parent *obs.Span) error {
	dir, err := os.MkdirTemp(s.b.work, "serve-")
	if err != nil {
		return err
	}
	s.dir = dir
	s.traces = map[string]string{}
	s.traceSource = map[string][]trace.Access{}
	for _, format := range []string{"binary", "text"} {
		name := traceKernels[format]
		var inst *workload.Instance
		for _, in := range s.b.replay.insts {
			if in.Name == name {
				inst = in
			}
		}
		path := filepath.Join(dir, name+".trace")
		if format == "text" {
			path = filepath.Join(dir, name+".txt")
		}
		if path, err = filepath.Abs(path); err != nil {
			return err
		}
		sp := child(parent, "trace.write", format)
		accs := inst.Accesses[:traceAccesses]
		err := trace.WriteFile(path, accs)
		endN(sp, int64(len(accs)))
		if err != nil {
			return fmt.Errorf("serve: writing %s: %w", path, err)
		}
		s.traces[format] = path
		s.traceSource[format] = accs
	}
	sp := parent.Child("server.boot")
	defer sp.End()
	return s.boot()
}

// boot starts a daemon with an empty state directory of its own.
func (s *serveWL) boot() error {
	var err error
	if s.state, err = os.MkdirTemp(s.dir, "state-"); err != nil {
		return err
	}
	s.sched, err = server.NewScheduler(server.Config{Workers: s.b.jobs, StateDir: s.state})
	if err != nil {
		return fmt.Errorf("serve: booting scheduler: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.http = server.StartHTTP(ln, server.NewHandler(s.sched, nil))
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
		Timeout:   time.Minute,
	}
	return nil
}

// reboot replaces the daemon with a fresh one, which has run no jobs.
// The trace files stay.
func (s *serveWL) reboot() error {
	s.shutdown()
	return s.boot()
}

// teardown stops the daemon and removes its files; safe to repeat.
func (s *serveWL) teardown() {
	s.shutdown()
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// shutdown stops the daemon; safe to repeat.
func (s *serveWL) shutdown() {
	if s.http != nil {
		s.http.Shutdown(10 * time.Second)
		s.http = nil
	}
	if s.sched != nil {
		s.sched.Drain(10 * time.Second)
		s.sched = nil
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
		s.client = nil
	}
	if s.state != "" {
		os.RemoveAll(s.state)
		s.state = ""
	}
}

// prepare lists the job shapes and renders each one's expected report
// in-process through run.Spec, outside every timed region.
func (s *serveWL) prepare() error {
	s.catalogue = nil
	s.lat = map[string][]float64{}
	add := func(kind, mode string, src map[string]string) error {
		spec, err := json.Marshal(map[string]any{"source": src, "seed": s.b.opt.seed})
		if err != nil {
			return err
		}
		e := &serveSpec{kind: kind, mode: mode, spec: spec}
		if err := s.render(e); err != nil {
			return fmt.Errorf("serve: expected %s %s: %w", mode, spec, err)
		}
		s.catalogue = append(s.catalogue, e)
		return nil
	}
	for _, k := range workload.Names() {
		if err := add("run", server.ModeRun, map[string]string{"kernel": k}); err != nil {
			return err
		}
		if err := add("compare", server.ModeCompare, map[string]string{"kernel": k}); err != nil {
			return err
		}
	}
	for _, format := range []string{"binary", "text"} {
		if err := add("trace", server.ModeRun, map[string]string{"trace": s.traces[format]}); err != nil {
			return err
		}
	}
	s.byKind = map[string][]*serveSpec{}
	for _, e := range s.catalogue {
		s.byKind[e.kind] = append(s.byKind[e.kind], e)
	}
	s.decks = make([]*mixDeck, serveClients)
	for c := range s.decks {
		s.decks[c] = newMixDeck(s.b.opt.seed*1000+int64(c), s.byKind)
	}
	return nil
}

// session resolves e's spec in-process, as the daemon does.
func (e *serveSpec) session() (*run.Session, error) {
	file, err := config.ParseBytes(e.spec)
	if err != nil {
		return nil, err
	}
	rs, err := file.Spec()
	if err != nil {
		return nil, err
	}
	return rs.Resolve()
}

// render runs e's spec in-process and renders the report the daemon
// must serve for it.
func (s *serveWL) render(e *serveSpec) error {
	sess, err := e.session()
	if err != nil {
		return err
	}
	e.inst = sess.Instance
	var buf bytes.Buffer
	var l1d cache.Stats
	if e.mode == server.ModeCompare {
		if e.cmp, err = sess.Compare(); err != nil {
			return err
		}
		run.WriteComparisonText(&buf, e.inst, e.cmp)
		l1d = e.cmp.Reports[0].DStats
	} else {
		if e.rep, err = sess.Run(); err != nil {
			return err
		}
		e.rep.WriteText(&buf)
		l1d = e.rep.DStats
	}
	e.expect = buf.Bytes()
	s.l1dHits += l1d.Hits
	s.l1dAccesses += l1d.Accesses
	return nil
}

// warm refills the process-wide memo caches the daemon's jobs read,
// untimed, by running every job shape once in-process: a regen
// repetition empties them, and without this the first jobs of the
// next serve slice would pay kernel builds and baseline replays in an
// order the seed decides.
func (s *serveWL) warm() error {
	for _, e := range s.catalogue {
		sess, err := e.session()
		switch {
		case err != nil:
		case e.mode == server.ModeCompare:
			_, err = sess.Compare()
		default:
			_, err = sess.Run()
		}
		if err != nil {
			return fmt.Errorf("serve: warming %s %s: %w", e.mode, e.spec, err)
		}
	}
	return nil
}

// mixDeck deals one client's job shapes. Kinds come in shuffled blocks
// of ten holding exactly the mix weights, and each kind's shapes in
// shuffled blocks holding each shape once, so every seed serves the
// same mix and only the order changes with it.
type mixDeck struct {
	rng    *rand.Rand
	byKind map[string][]*serveSpec
	kinds  []string
	shapes map[string][]*serveSpec
}

func newMixDeck(seed int64, byKind map[string][]*serveSpec) *mixDeck {
	return &mixDeck{rng: rand.New(rand.NewSource(seed)), byKind: byKind, shapes: map[string][]*serveSpec{}}
}

// next deals the next job shape.
func (d *mixDeck) next() *serveSpec {
	if len(d.kinds) == 0 {
		for kind, n := range map[string]int{"run": weightRun, "compare": weightCompare, "trace": weightTrace} {
			for i := 0; i < n; i++ {
				d.kinds = append(d.kinds, kind)
			}
		}
		sort.Strings(d.kinds)
		d.rng.Shuffle(len(d.kinds), func(i, j int) { d.kinds[i], d.kinds[j] = d.kinds[j], d.kinds[i] })
	}
	kind := d.kinds[0]
	d.kinds = d.kinds[1:]
	same := d.shapes[kind]
	if len(same) == 0 {
		same = append(same, d.byKind[kind]...)
		d.rng.Shuffle(len(same), func(i, j int) { same[i], same[j] = same[j], same[i] })
	}
	d.shapes[kind] = same[1:]
	return same[0]
}

// jobTimeout bounds one job; a job that takes longer counts as failed.
const jobTimeout = time.Minute

// job drives one job through the daemon and checks its report. It
// returns the latency and whether the job succeeded.
func (s *serveWL) job(e *serveSpec, tenant string, parent *obs.Span) (time.Duration, bool) {
	body, err := json.Marshal(map[string]any{"tenant": tenant, "mode": e.mode, "spec": json.RawMessage(e.spec)})
	if err != nil {
		s.b.out.fail("serve: encoding submission: %v", err)
		return 0, false
	}
	s.submitted.Add(1)
	t0 := time.Now()
	sp := child(parent, "server.http_submit", e.kind)
	status, resp, err := s.do(http.MethodPost, "/v1/runs", body)
	sp.End()
	if err != nil {
		s.b.out.fail("serve: submit: %v", err)
		return 0, false
	}
	if status != http.StatusAccepted {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			s.rejected.Add(1)
		}
		s.b.out.fail("serve: submit answered %d: %s", status, bytes.TrimSpace(resp))
		return 0, false
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &doc); err != nil {
		s.b.out.fail("serve: submit answer: %v", err)
		return 0, false
	}
	j, ok := s.sched.Get(doc.ID)
	if !ok {
		s.b.out.fail("serve: job %s unknown to the scheduler", doc.ID)
		return 0, false
	}
	sp = child(parent, "server.wait", e.kind)
	timer := time.NewTimer(jobTimeout)
	select {
	case <-j.Done():
		timer.Stop()
	case <-timer.C:
		sp.End()
		s.b.out.fail("serve: job %s did not finish within %v", doc.ID, jobTimeout)
		return 0, false
	}
	sp.End()
	sp = child(parent, "server.report_get", e.kind)
	status, report, err := s.do(http.MethodGet, "/v1/runs/"+doc.ID+"/report", nil)
	sp.End()
	lat := time.Since(t0)
	if err != nil {
		s.b.out.fail("serve: report %s: %v", doc.ID, err)
		return 0, false
	}
	sp = child(parent, "check.report", e.kind)
	defer sp.End()
	if status != http.StatusOK {
		s.b.out.fail("serve: report %s answered %d: %s", doc.ID, status, bytes.TrimSpace(report))
		return 0, false
	}
	if !bytes.Equal(report, e.expect) {
		s.b.out.fail("serve: job %s (%s %s) report differs from the in-process rendering", doc.ID, e.mode, e.spec)
		return 0, false
	}
	if parent != nil {
		d := s.sched.Doc(j, false)
		s.mu.Lock()
		s.queueMS = append(s.queueMS, d.QueueMS)
		s.runMS = append(s.runMS, d.RunMS)
		s.mu.Unlock()
	}
	return lat, true
}

// do sends one request and reads the whole answer.
func (s *serveWL) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// measure runs the closed loop until the budget is spent and at least
// minJobs jobs have completed, and returns the jobs run.
func (s *serveWL) measure(budget time.Duration, minJobs int, parent *obs.Span) int {
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			deck := s.decks[c]
			tenant := fmt.Sprintf("client-%d", c)
			for done.Load() < int64(minJobs) || time.Since(start) < budget {
				e := deck.next()
				s.b.out.attempt(1)
				sp := child(parent, "serve.job", e.kind)
				lat, ok := s.job(e, tenant, sp)
				sp.End()
				done.Add(1)
				if ok {
					s.mu.Lock()
					s.lat[e.kind] = append(s.lat[e.kind], float64(lat)/float64(time.Millisecond))
					s.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	s.wall += time.Since(start)
	return int(done.Load())
}

// allLatencies merges every kind's latencies.
func (s *serveWL) allLatencies() []float64 {
	var all []float64
	for _, l := range s.lat {
		all = append(all, l...)
	}
	return all
}
