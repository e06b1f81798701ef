// Command cntsim runs one workload — a bundled benchmark kernel, a
// bundled ISA program, or a trace file — through the simulated cache
// hierarchy and prints the architectural and energy report for a chosen
// encoding variant (or a side-by-side comparison of all variants).
// Every invocation executes through internal/run.Spec, the unified
// drive path shared with cntbench, cntexplore and the examples.
//
// Usage:
//
//	cntsim -workload mm                 # bundled kernel, CNT-Cache vs baseline
//	cntsim -program matmul              # bundled ISA program (I+D traffic)
//	cntsim -trace t.bin                 # binary or text trace file
//	cntsim -workload list -compare      # all variants side by side
//	cntsim -workload mm -variant baseline -window 31 -partitions 16
//	cntsim -workload mm -trace-out events.jsonl -metrics-out metrics.json
//	cntsim -workload mm -compare -span-out spans.jsonl   # lifecycle spans (cntstat -spans)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/cache"
	"repro/internal/cnfet"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/obs"
	simrun "repro/internal/run"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cntsim:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flag parsing against
// args, reports to stdout, diagnostics to stderr, every failure a
// returned error (the only os.Exit lives in main).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cntsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "bundled kernel: "+strings.Join(workload.Names(), ","))
	prog := fs.String("program", "", "bundled ISA program: "+strings.Join(isa.ProgramNames(), ","))
	traceFile := fs.String("trace", "", "trace file (.txt or binary)")
	variant := fs.String("variant", simrun.DefaultVariant, "encoding variant: "+strings.Join(core.VariantNames(), ","))
	compare := fs.Bool("compare", false, "run every variant and print a comparison")
	window := fs.Int("window", 15, "prediction window W")
	partitions := fs.Int("partitions", 8, "partition count K")
	deltaT := fs.Float64("deltat", core.DefaultDeltaT, "switch hysteresis")
	device := fs.String("device", simrun.DefaultDevice, "device preset: "+strings.Join(cnfet.PresetNames(), ","))
	seed := fs.Int64("seed", 1, "workload seed")
	jobs := fs.Int("jobs", 0, "comparison worker count (0 = one per CPU)")
	configPath := fs.String("config", "", "JSON run specification (overrides variant/device/geometry flags)")
	exampleConfig := fs.Bool("example-config", false, "print a sample configuration file and exit")
	inspect := fs.Bool("inspect", false, "dump the resolved hierarchy (per-level geometry, device, variant) and the D-cache line-state snapshot (masks, density histograms) after the run")
	traceOut := fs.String("trace-out", "", "write a JSONL event trace of the run to this file (see cntstat)")
	metricsOut := fs.String("metrics-out", "", "write a JSON metric snapshot of the run to this file")
	spanOut := fs.String("span-out", "", "write a JSONL span trace of the run's lifecycle to this file (see cntstat -spans; works with -compare: cell spans carry variant attributes)")
	faultRate := fs.Float64("fault-rate", 0, "composite CNT fault rate: stuck cells, transient flips and predictor upsets at this per-cell/per-access probability (0 disables; see internal/fault)")
	faultSpread := fs.Float64("fault-spread", 0, "per-line energy-scale half-width modeling CNT-count variation, in [0,1)")
	faultSeed := fs.Int64("fault-seed", 1, "fault-injection seed (independent of -seed)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*traceOut != "" || *metricsOut != "") && *compare {
		// Compare runs every variant concurrently; their events and
		// counters would interleave into one stream no reader could
		// attribute to a variant.
		return fmt.Errorf("-trace-out/-metrics-out cannot be combined with -compare (the variants' telemetry would interleave)")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "cntsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "cntsim:", err)
			}
		}()
	}

	if *exampleConfig {
		return config.WriteExample(stdout)
	}

	// The optional telemetry consumers: a JSONL event sink and a metric
	// registry, attached to both L1s of whatever simulation runs below
	// and persisted after it succeeds. Both artifacts are written
	// atomically — the event stream accumulates in a temp file that is
	// only renamed into place on success, so an aborted run never leaves
	// a truncated trace where a complete one is expected.
	var (
		sink   *obs.JSONLSink
		traceF *atomicio.File
		reg    *obs.Registry
	)
	if *traceOut != "" {
		f, err := atomicio.Create(*traceOut)
		if err != nil {
			return err
		}
		traceF, sink = f, obs.NewJSONLSink(f)
		defer traceF.Abort() // no-op once persist has committed
	}
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}

	// The span trace is a separate artifact on the same atomic-commit
	// terms: a root "job" span covers the whole invocation, the run
	// layer nests load/run/compare/cell spans under it through
	// Spec.Tracer, and render/flush children close the lifecycle. The
	// file commits only after the root has ended, so a committed span
	// trace always reconciles (cntstat -spans re-audits it anyway).
	var (
		spanSink *obs.JSONLSink
		spanF    *atomicio.File
		tracer   *obs.Tracer
		root     *obs.Span
	)
	if *spanOut != "" {
		f, err := atomicio.Create(*spanOut)
		if err != nil {
			return err
		}
		spanF = f
		spanSink = obs.NewJSONLSink(f)
		defer spanF.Abort() // no-op once committed
		mode := "run"
		if *compare {
			mode = "compare"
		}
		tracer = obs.NewTracer(spanSink)
		root = tracer.StartSpan("job", obs.SpanContext{}).
			Annotate("cmd", "cntsim").
			Annotate("mode", mode)
	}

	persist := func() error {
		// The artifact flush is itself a traced stage; it must end before
		// the root does, and the root before the span file commits, or
		// the committed stream would miss its own closing records.
		fspan := root.Child("flush")
		var err error
		if sink != nil {
			if err = sink.Flush(); err == nil {
				err = traceF.Commit()
			}
			if err != nil {
				err = fmt.Errorf("writing %s: %w", *traceOut, err)
			}
		}
		if err == nil && reg != nil {
			if werr := atomicio.WriteTo(*metricsOut, reg.WriteJSON); werr != nil {
				err = fmt.Errorf("writing %s: %w", *metricsOut, werr)
			}
		}
		fspan.EndErr(err)
		root.End()
		if err == nil && spanSink != nil {
			if serr := spanSink.Flush(); serr != nil {
				err = fmt.Errorf("writing %s: %w", *spanOut, serr)
			} else if serr := spanF.Commit(); serr != nil {
				err = fmt.Errorf("writing %s: %w", *spanOut, serr)
			}
		}
		return err
	}

	// Build the run specification: from the config document when given
	// (knob flags are ignored then; a CLI source overrides the file's),
	// otherwise from the flags, with every knob vetted eagerly so a bad
	// value fails with a one-line error before any simulation is built.
	var spec simrun.Spec
	if *configPath != "" {
		doc, err := config.Load(*configPath)
		if err != nil {
			return err
		}
		spec, err = doc.Spec()
		if err != nil {
			return err
		}
		if *wl != "" || *prog != "" || *traceFile != "" {
			spec.Source = simrun.Source{Kernel: *wl, Program: *prog, TracePath: *traceFile}
		}
	} else {
		if *window < 1 {
			return fmt.Errorf("-window must be at least 1, got %d", *window)
		}
		if *deltaT < 0 || *deltaT >= 1 {
			return fmt.Errorf("-deltat must be in [0,1), got %g", *deltaT)
		}
		lineBytes := cache.DefaultHierarchyConfig().L1D.Geometry.LineBytes
		if err := encoding.CheckPartitions(lineBytes, *partitions); err != nil {
			return fmt.Errorf("-partitions %d: %w", *partitions, err)
		}
		params := core.DefaultParams()
		params.Partitions = *partitions
		params.Window = *window
		params.DeltaT = *deltaT
		params.Table = cnfet.EnergyTable{} // resolved from -device
		spec = simrun.Spec{
			Source:  simrun.Source{Kernel: *wl, Program: *prog, TracePath: *traceFile},
			Seed:    *seed,
			Device:  *device,
			Variant: *variant,
			Params:  &params,
		}
	}
	spec.Jobs = *jobs
	if sink != nil {
		spec.Trace = sink
	}
	if reg != nil {
		spec.Metrics = reg
	}
	if tracer != nil {
		spec.Tracer = tracer
		spec.SpanParent = root.Context()
	}
	// Fault flags layer on top of either path (and override a config
	// file's fault block); validation happens eagerly in Resolve.
	if *faultRate != 0 || *faultSpread != 0 {
		fc := fault.AtRate(*faultRate, *faultSeed)
		fc.EnergySpread = *faultSpread
		spec.Fault = &fc
	}

	sess, err := spec.Resolve()
	if err != nil {
		return err
	}

	if *compare {
		cmp, err := sess.Compare()
		if err != nil {
			return err
		}
		rspan := root.Child("render")
		simrun.WriteComparisonText(stdout, sess.Instance, cmp)
		rspan.End()
		return persist()
	}

	start := time.Now()
	var (
		rep  *simrun.Report
		snap core.Snapshot
	)
	if *inspect {
		rep, snap, err = sess.RunSnapshot(context.Background())
	} else {
		rep, err = sess.Run()
	}
	if err != nil {
		return err
	}
	// Throughput goes to stderr: stdout's report stays byte-stable for
	// tests and diffing, while interactive runs still see how fast the
	// batched replay path chewed through the trace.
	if secs := time.Since(start).Seconds(); secs > 0 {
		n := rep.DStats.Accesses + rep.IStats.Accesses
		fmt.Fprintf(stderr, "replayed %d accesses in %.3fs (%.2f Maccess/s)\n",
			n, secs, float64(n)/secs/1e6)
	}
	rspan := root.Child("render")
	rep.WriteText(stdout)
	if *inspect {
		fmt.Fprintln(stdout, "\nresolved hierarchy:")
		for _, lvl := range sess.Levels() {
			g := lvl.Geometry
			fmt.Fprintf(stdout, "  %-4s %4d sets x %2d ways x %2dB (%d KiB)  device=%s  variant=%s\n",
				lvl.Name, g.Sets, g.Ways, g.LineBytes,
				g.Sets*g.Ways*g.LineBytes/1024, lvl.Device, lvl.Variant)
		}
		fmt.Fprintln(stdout, "\nD-cache line-state snapshot:")
		fmt.Fprint(stdout, snap.String())
	}
	rspan.End()
	return persist()
}
