package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"repro/internal/bitutil"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/run"
	"repro/internal/server"
	"repro/internal/trace"
)

// Probes time one layer's public functions directly, with the same
// suite inputs the workloads feed them, so the layer's cost is measured
// apart from everything that surrounds it in a workload. Each probe
// records a span per timed repetition (under the traced run's "probes"
// root) and returns its figure; repetitions give a median.

// sink keeps probe results live so the compiler cannot drop the calls.
var sink int

// probeReps is how many times a probe repeats its timed unit.
const probeReps = 5

// probeCache drives cache.Cache.Access directly with the suite stream
// over a memory backend: the array probe without any encoding layer.
func (b *bench) probeCache(parent *obs.Span) float64 {
	hier := core.DefaultSimConfig().Hierarchy
	var ns []float64
	for rep := 0; rep < probeReps; rep++ {
		var busy time.Duration
		var n int64
		for _, inst := range b.replay.insts {
			m := mem.New()
			inst.Preload(m)
			l1d, err1 := cache.New(hier.L1D, cache.MemBackend{M: m})
			l1i, err2 := cache.New(hier.L1I, cache.MemBackend{M: m})
			if err1 != nil || err2 != nil {
				b.out.attempt(1)
				b.out.fail("cache probe: %v %v", err1, err2)
				return 0
			}
			access := func(a trace.Access) error {
				c := l1d
				if a.Op == trace.Fetch {
					c = l1i
				}
				_, err := c.Access(a.IsWrite(), a.Addr, a.Size, a.Data)
				return err
			}
			sp := child(parent, "cache.access", inst.Name)
			t0 := time.Now()
			for _, a := range inst.Accesses {
				var err error
				if cache.SameLine(a, hier.L1D.Geometry.LineBytes) {
					err = access(a)
				} else {
					err = cache.SplitEach(a, hier.L1D.Geometry.LineBytes, access)
				}
				if err != nil {
					sp.End()
					b.out.attempt(1)
					b.out.fail("cache probe %s: %v", inst.Name, err)
					return 0
				}
			}
			busy += time.Since(t0)
			endN(sp, int64(len(inst.Accesses)))
			n += int64(len(inst.Accesses))
			sink += int(l1d.Stats().Hits)
		}
		ns = append(ns, float64(busy.Nanoseconds())/float64(n))
	}
	return median(ns)
}

// writeLines packs the suite's write payloads into 64-byte lines: the
// bytes the bit kernels count on every write of a replay.
func (b *bench) writeLines() [][]byte {
	var all []byte
	for _, inst := range b.replay.insts {
		for _, a := range inst.Accesses {
			if a.Op == trace.Write {
				all = append(all, a.Data...)
			}
		}
	}
	lines := make([][]byte, 0, len(all)/64)
	for off := 0; off+64 <= len(all); off += 64 {
		lines = append(lines, all[off:off+64])
	}
	return lines
}

// probeBitutil times bitutil.Ones and bitutil.OnesPerPartition (K=8,
// the default partitioning) per line, and checks that both count the
// same ones.
func (b *bench) probeBitutil(parent *obs.Span) (onesNS, perPartNS float64) {
	lines := b.writeLines()
	dst := make([]int, 8)
	var ones, parts []float64
	for rep := 0; rep < probeReps; rep++ {
		sp := child(parent, "bitutil.ones", "")
		t0 := time.Now()
		total := 0
		for _, l := range lines {
			total += bitutil.Ones(l)
		}
		ones = append(ones, float64(time.Since(t0).Nanoseconds())/float64(len(lines)))
		endN(sp, int64(len(lines)))

		sp = child(parent, "bitutil.ones_per_partition", "")
		t0 = time.Now()
		byPart := 0
		for _, l := range lines {
			for _, c := range bitutil.OnesPerPartition(l, 8, dst) {
				byPart += c
			}
		}
		parts = append(parts, float64(time.Since(t0).Nanoseconds())/float64(len(lines)))
		endN(sp, int64(len(lines)))

		b.out.attempt(1)
		if total != byPart {
			b.out.fail("bitutil probe: Ones counts %d, OnesPerPartition %d", total, byPart)
		}
		sink += total
	}
	return median(ones), median(parts)
}

// probePredictor times predictor.RecordAccess over the suite's data
// accesses, one history per line of a 4096-line table, resetting a
// history whenever its window completes as the cache does.
func (b *bench) probePredictor(parent *obs.Span) float64 {
	opts := core.DefaultOptions()
	p, err := predictor.New(predictor.Config{
		Window: opts.Window, LineBytes: 64, Partitions: opts.Spec.Partitions,
		Table: opts.Table, DeltaT: opts.DeltaT,
	})
	b.out.attempt(1)
	if err != nil {
		b.out.fail("predictor probe: %v", err)
		return 0
	}
	states := make([]predictor.LineState, 4096)
	var ns []float64
	for rep := 0; rep < probeReps; rep++ {
		var busy time.Duration
		var n, windows int64
		for _, inst := range b.replay.insts {
			sp := child(parent, "predictor.record", inst.Name)
			t0 := time.Now()
			var k int64
			for _, a := range inst.Accesses {
				if a.Op == trace.Fetch {
					continue
				}
				s := &states[(a.Addr>>6)&4095]
				if p.RecordAccess(s, a.Op == trace.Write) {
					s.Reset()
					windows++
				}
				k++
			}
			busy += time.Since(t0)
			endN(sp, k)
			n += k
		}
		ns = append(ns, float64(busy.Nanoseconds())/float64(n))
		sink += int(windows)
	}
	return median(ns)
}

// probeDecode times trace.ReadFile over the serve trace file of one
// format and checks it decodes to the stream it was written from.
func (b *bench) probeDecode(format string, parent *obs.Span) float64 {
	path := b.serve.traces[format]
	want := b.serve.traceSource[format]
	const reps = 50
	var ns []float64
	for rep := 0; rep < reps; rep++ {
		sp := child(parent, "trace.decode", format)
		t0 := time.Now()
		accs, err := trace.ReadFile(path)
		d := time.Since(t0)
		endN(sp, int64(len(accs)))
		if rep == 0 {
			b.out.attempt(1)
			if err != nil {
				b.out.fail("decode probe %s: %v", format, err)
				return 0
			}
			if !reflect.DeepEqual(accs, want) {
				b.out.fail("decode probe %s: decoded stream differs from the one written", format)
			}
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(len(accs)))
	}
	return median(ns)
}

// probeSession times Spec.Resolve + Session.Run against core.RunInstance
// on the same instance and configuration, alternating the two, and
// returns the median of the paired differences: what the run layer
// adds to a simulation.
func (b *bench) probeSession(parent *obs.Span) float64 {
	var diffs []float64
	for rep := 0; rep < 3; rep++ {
		for _, inst := range b.replay.insts {
			spec := run.Spec{Source: run.Source{Kernel: inst.Name}, Seed: b.opt.seed}
			sp := child(parent, "run.session", inst.Name)
			t0 := time.Now()
			sess, err := spec.Resolve()
			var rep1 *run.Report
			if err == nil {
				rep1, err = sess.Run()
			}
			viaSession := time.Since(t0)
			sp.End()
			b.out.attempt(1)
			if err != nil {
				b.out.fail("session probe %s: %v", inst.Name, err)
				continue
			}
			sp = child(parent, "core.run_instance", inst.Name)
			t0 = time.Now()
			rep2, err := core.RunInstance(sess.Instance, sess.SimConfig)
			direct := time.Since(t0)
			sp.End()
			if err != nil {
				b.out.fail("session probe %s: %v", inst.Name, err)
				continue
			}
			if rep1.DStats != rep2.DStats || rep1.DEnergy != rep2.DEnergy {
				b.out.fail("session probe %s: session and direct runs disagree", inst.Name)
			}
			diffs = append(diffs, float64((viaSession-direct).Nanoseconds())/1e3)
		}
	}
	return median(diffs)
}

// probeRender times the text renderers over every expected serve
// report and checks they reproduce the expected bytes.
func (b *bench) probeRender(parent *obs.Span) float64 {
	var us []float64
	var buf bytes.Buffer
	for rep := 0; rep < probeReps; rep++ {
		for _, e := range b.serve.catalogue {
			buf.Reset()
			sp := child(parent, "run.render", e.kind)
			t0 := time.Now()
			if e.cmp != nil {
				run.WriteComparisonText(&buf, e.inst, e.cmp)
			} else {
				e.rep.WriteText(&buf)
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			sp.End()
			if rep == 0 {
				b.out.attempt(1)
				if !bytes.Equal(buf.Bytes(), e.expect) {
					b.out.fail("render probe: %s rendering is not reproducible", e.spec)
				}
			}
		}
	}
	return median(us)
}

// probeSchedSubmit times Scheduler.Submit called directly — admission
// plus the journal append and its fsync — for one small kernel run at
// a time, waiting for each job before the next.
func (b *bench) probeSchedSubmit(parent *obs.Span) float64 {
	spec := []byte(fmt.Sprintf(`{"source":{"kernel":"list"},"seed":%d}`, b.opt.seed))
	file, err := config.ParseBytes(spec)
	var rs run.Spec
	if err == nil {
		rs, err = file.Spec()
	}
	b.out.attempt(1)
	if err != nil {
		b.out.fail("submit probe: %v", err)
		return 0
	}
	const jobs = 30
	var ms []float64
	for i := 0; i < jobs; i++ {
		sp := child(parent, "server.sched_submit", "")
		t0 := time.Now()
		j, err := b.serve.sched.Submit(server.JobRequest{Tenant: "probe", Mode: server.ModeRun, Spec: rs, RawSpec: spec})
		d := time.Since(t0)
		sp.End()
		b.out.attempt(1)
		if err != nil {
			b.out.fail("submit probe: %v", err)
			continue
		}
		select {
		case <-j.Done():
		case <-time.After(jobTimeout):
			b.out.fail("submit probe: job %s did not finish within %v", j.ID, jobTimeout)
			continue
		}
		if st := b.serve.sched.Doc(j, false).State; st != server.StateDone {
			b.out.fail("submit probe: job %s ended %s", j.ID, st)
		}
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return median(ms)
}

// probeObserved alternates suite passes of the cnt-cache variant with
// and without an obs.Registry attached and returns the ratio of their
// median step costs: what moving a replay onto the observed (generic)
// access path costs.
func (b *bench) probeObserved(parent *obs.Span) float64 {
	plain := replayVariants()[1]
	var obsNS, plainNS []float64
	for pair := 0; pair < 2*probeReps; pair++ {
		for _, observed := range []bool{pair%2 == 0, pair%2 != 0} {
			cfg := plain.cfg
			attr := "plain"
			if observed {
				reg := obs.NewRegistry()
				cfg.DOpts.Metrics, cfg.IOpts.Metrics = reg, reg
				attr = "observed"
			}
			var busy time.Duration
			var n int
			for _, inst := range b.replay.insts {
				m := mem.New()
				inst.Preload(m)
				sim, err := core.NewSim(cfg, m)
				b.out.attempt(1)
				if err != nil {
					b.out.fail("observed probe: %v", err)
					return 0
				}
				sp := child(parent, "core.step", attr)
				t0 := time.Now()
				k, err := sim.StepBatch(inst.Accesses)
				busy += time.Since(t0)
				endN(sp, int64(k))
				if err != nil {
					b.out.fail("observed probe %s: %v", inst.Name, err)
					return 0
				}
				n += k
				if rep := sim.Finish(inst.Name, plain.name); !reflect.DeepEqual(rep, b.replay.ref[inst.Name+"/"+plain.name]) {
					b.out.fail("observed probe %s/%s: report differs from the plain replay", inst.Name, attr)
				}
			}
			perAccess := float64(busy.Nanoseconds()) / float64(n)
			if observed {
				obsNS = append(obsNS, perAccess)
			} else {
				plainNS = append(plainNS, perAccess)
			}
		}
	}
	return median(obsNS) / median(plainNS)
}
