package run

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/cnfet"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sram"
	"repro/internal/workload"
)

// DefaultVariant is the variant a Spec runs when none is named: the
// paper's partitioned CNT-Cache.
const DefaultVariant = "cnt-cache"

// DefaultDevice is the device preset used when none is named.
const DefaultDevice = "cnfet-32"

// Spec declares one simulation. The zero value of every field means
// "the default": seed 1, the default hierarchy, the cnfet-32 device,
// the cnt-cache variant with core.DefaultParams, no telemetry. Only the
// Source must be set.
type Spec struct {
	// Source selects the access stream.
	Source Source
	// Seed parameterizes kernel builds; 0 means 1.
	Seed int64
	// Hierarchy is the cache organization; the zero value means
	// cache.DefaultHierarchyConfig.
	Hierarchy cache.HierarchyConfig
	// Device names the energy-table preset (cnfet.PresetByName) used
	// whenever a parameter bundle carries no explicit table.
	Device string

	// Variant names the D-cache encoding variant in the core registry;
	// "" means DefaultVariant. Params, when non-nil, overrides
	// core.DefaultParams as the builder input.
	Variant string
	Params  *core.Params
	// IVariant/IParams override the I-cache side. When all four of
	// IVariant, IParams and the two escape hatches below are unset, the
	// I-cache runs the same options as the D-cache.
	IVariant string
	IParams  *core.Params

	// Levels configures the shared hierarchy levels, parallel to
	// Hierarchy.Shared (outermost-first: Levels[0] is the L2). Missing
	// entries — and the zero LevelSpec — run the plain "baseline"
	// variant on the spec's device. Listing more levels than the
	// hierarchy has shared caches is an error.
	Levels []LevelSpec

	// DOptions/IOptions are the fully-resolved escape hatch for engine
	// callers that already hold core.Options; each is mutually exclusive
	// with the corresponding Variant/Params pair.
	DOptions *core.Options
	IOptions *core.Options

	// Metrics and Trace, when non-nil, attach to both L1s of the run.
	Metrics *obs.Registry
	Trace   obs.Sink

	// Tracer, when non-nil, emits lifecycle spans for this run: source
	// loading (with memo hit/miss), the replay itself, and per-cell
	// Compare simulations (with worker index and retry attempt). Spans
	// flow through the tracer's own sink, not Trace — cache events and
	// lifecycle spans are separate streams. A nil Tracer costs nothing.
	Tracer *obs.Tracer
	// SpanParent parents every span this run emits — typically the
	// caller's root "job" span, so CLI and daemon runs trace through the
	// identical shape. The zero value makes each top-level stage span a
	// trace root of its own.
	SpanParent obs.SpanContext

	// Fault, when non-nil, attaches the device fault model to both L1s
	// (internal/fault); each cache mixes its own label into Fault.Seed,
	// so the two sides draw independent fault streams. Explicitly-
	// provided options keep their own Fault unless the spec names one.
	Fault *fault.Config

	// Jobs bounds the worker pool of Compare; <=0 means one per CPU.
	Jobs int

	// Retries bounds how many times a Compare cell is attempted when it
	// fails with a transient error (IsTransient); <=1 means no retry.
	// Deterministic failures are never retried.
	Retries int
}

// LevelSpec configures one shared hierarchy level (the L2, L3, ...).
// Its zero value means exactly what an absent entry means — a plain
// baseline level on the spec's device, energy-modeled but unencoded —
// so sparse Levels lists are safe.
type LevelSpec struct {
	// Variant names the level's encoding variant in the core registry.
	// "" means "baseline", NOT DefaultVariant: a shared level sees only
	// fills and L1 writebacks, so it is encoded only when the spec asks
	// for it.
	Variant string
	// Params, when non-nil, overrides core.DefaultParams as the builder
	// input, exactly like the L1 bundles.
	Params *core.Params
	// Options is the fully-resolved escape hatch; mutually exclusive
	// with Variant, Params and Device.
	Options *core.Options
	// Device names this level's energy-table preset; "" means the
	// spec's Device.
	Device string
}

// LevelDesc is the resolved description of one hierarchy level — what
// cntsim -inspect prints. Geometry, device and variant are the values
// the simulation will actually run, after every default has been
// filled.
type LevelDesc struct {
	Name     string
	Geometry sram.Geometry
	Device   string
	Variant  string
}

// Report is a run's outcome: the engine report plus the instance that
// produced it. When the variant was resolved by registry name, the
// report's Variant field carries that name, so a name written in a
// config file round-trips into the output unchanged.
type Report struct {
	*core.Report
	// Instance is the access stream the run replayed.
	Instance *workload.Instance
}

// Session is a resolved, validated Spec, ready to execute.
type Session struct {
	// Instance is the loaded access stream.
	Instance *workload.Instance
	// SimConfig is the fully-resolved engine configuration.
	SimConfig core.SimConfig

	seed       int64
	jobs       int
	retries    int
	name       string // D-variant registry name; "" when DOptions was used
	params     core.Params
	paramsOK   bool
	levels     []LevelDesc // resolved per-level descriptions, L1D first
	tracer     *obs.Tracer // nil: lifecycle spans off
	spanParent obs.SpanContext

	// compareHook, when set, observes each Compare cell attempt as it
	// starts (called with the variant index on the worker goroutine,
	// inside the retry loop); a non-nil return fails that attempt. Test
	// seam for deterministic mid-Compare cancellation, panics and
	// transient failures; never set in production.
	compareHook func(i int) error
}

// deviceTable resolves a device preset name to its energy table.
func deviceTable(name string) (cnfet.EnergyTable, error) {
	dev, err := cnfet.PresetByName(name)
	if err != nil {
		return cnfet.EnergyTable{}, err
	}
	return dev.Table()
}

// resolveSide builds one L1's options from a (variant, params) pair,
// filling defaults: empty name means DefaultVariant, nil params means
// core.DefaultParams, a zero-valued table means the spec's device.
func resolveSide(variant string, params *core.Params, device string) (string, core.Params, core.Options, error) {
	name := variant
	if name == "" {
		name = DefaultVariant
	}
	p := core.DefaultParams()
	if params != nil {
		p = *params
	} else {
		// A nil bundle carries no explicit table: the spec's device decides.
		p.Table = cnfet.EnergyTable{}
	}
	if p.Table.Name == "" {
		tab, err := deviceTable(device)
		if err != nil {
			return "", p, core.Options{}, err
		}
		p.Table = tab
	}
	opts, err := core.BuildVariant(name, p)
	if err != nil {
		return "", p, core.Options{}, err
	}
	// A CACTI-named table carries a calibrated periphery: the embedded
	// CACTI run its device preset was fitted against also fixes the
	// decoder, tag-compare and column energies, so a full-line read on
	// the calibrated array reproduces the run's per-access read energy
	// (see sram.Calibrate). Explicit peripheries always win.
	if opts.Periphery == nil && sram.IsCACTITable(p.Table.Name) {
		per, err := sram.CalibratedPeriphery(p.Table.Name, p.Table)
		if err != nil {
			return "", p, core.Options{}, err
		}
		opts.Periphery = &per
	}
	return name, p, opts, nil
}

// configure resolves everything but the source.
func (s Spec) configure() (*Session, error) {
	sess := &Session{
		seed: s.Seed, jobs: s.Jobs, retries: s.Retries,
		tracer: s.Tracer, spanParent: s.SpanParent,
	}
	if sess.seed == 0 {
		sess.seed = 1
	}

	// The default hierarchy substitutes only for a fully-zero config. A
	// partially-configured one (say, an L2 without L1s) used to be
	// silently replaced wholesale — the run looked like it honored the
	// spec but simulated the default geometry — so it is now an eager
	// validation error instead.
	hier := s.Hierarchy
	if hier.Zero() {
		hier = cache.DefaultHierarchyConfig()
	} else if err := hier.Validate(); err != nil {
		return nil, fmt.Errorf("run: %w (a partial hierarchy is not defaulted: configure every level or none)", err)
	}
	sess.SimConfig.Hierarchy = hier

	device := s.Device
	if device == "" {
		device = DefaultDevice
	}

	// D side.
	if s.DOptions != nil {
		if s.Variant != "" || s.Params != nil {
			return nil, fmt.Errorf("run: DOptions and Variant/Params are mutually exclusive")
		}
		sess.SimConfig.DOpts = *s.DOptions
	} else {
		name, p, opts, err := resolveSide(s.Variant, s.Params, device)
		if err != nil {
			return nil, err
		}
		sess.SimConfig.DOpts = opts
		sess.name, sess.params, sess.paramsOK = name, p, true
	}

	// I side: explicit options, an explicit (variant, params) pair, or —
	// when nothing is said about it — the same options as the D side.
	iName := sess.name
	switch {
	case s.IOptions != nil:
		if s.IVariant != "" || s.IParams != nil {
			return nil, fmt.Errorf("run: IOptions and IVariant/IParams are mutually exclusive")
		}
		sess.SimConfig.IOpts = *s.IOptions
		iName = ""
	case s.IVariant != "" || s.IParams != nil:
		name, _, opts, err := resolveSide(s.IVariant, s.IParams, device)
		if err != nil {
			return nil, err
		}
		sess.SimConfig.IOpts = opts
		iName = name
	default:
		sess.SimConfig.IOpts = sess.SimConfig.DOpts
	}

	// Shared levels. With no Levels entries SharedOpts stays nil and the
	// engine default applies — plain baseline on the D-cache's table,
	// energetically the pre-refactor L2. Any entry switches the whole
	// list to explicit resolution, so each level's variant and device are
	// pinned here, on the one path every driver shares.
	if len(s.Levels) > len(hier.Shared) {
		return nil, fmt.Errorf("run: %d level specs for %d shared cache levels",
			len(s.Levels), len(hier.Shared))
	}
	levelVariants := make([]string, len(hier.Shared))
	levelDevices := make([]string, len(hier.Shared))
	if len(s.Levels) > 0 {
		sess.SimConfig.SharedOpts = make([]core.Options, len(hier.Shared))
	}
	for i := range hier.Shared {
		lname := hier.LevelName(i)
		if len(s.Levels) == 0 {
			levelVariants[i] = "baseline"
			levelDevices[i] = sess.SimConfig.DOpts.Table.Name
			continue
		}
		var ls LevelSpec
		if i < len(s.Levels) {
			ls = s.Levels[i]
		}
		switch {
		case ls.Options != nil:
			if ls.Variant != "" || ls.Params != nil || ls.Device != "" {
				return nil, fmt.Errorf("run: %s: Options and Variant/Params/Device are mutually exclusive", lname)
			}
			sess.SimConfig.SharedOpts[i] = *ls.Options
			levelVariants[i] = ls.Options.Spec.String()
			levelDevices[i] = ls.Options.Table.Name
		default:
			variant := ls.Variant
			if variant == "" {
				variant = "baseline"
			}
			dev := ls.Device
			if dev == "" {
				dev = device
			}
			name, _, opts, err := resolveSide(variant, ls.Params, dev)
			if err != nil {
				return nil, fmt.Errorf("run: %s: %w", lname, err)
			}
			sess.SimConfig.SharedOpts[i] = opts
			levelVariants[i] = name
			levelDevices[i] = dev
		}
	}

	// Telemetry attaches to both L1s, exactly like the pre-run drivers
	// did. Explicitly-provided options keep their own sinks unless the
	// spec names new ones.
	if s.Metrics != nil {
		sess.SimConfig.DOpts.Metrics = s.Metrics
		sess.SimConfig.IOpts.Metrics = s.Metrics
	}
	if s.Trace != nil {
		sess.SimConfig.DOpts.Trace = s.Trace
		sess.SimConfig.IOpts.Trace = s.Trace
	}
	if s.Fault != nil {
		sess.SimConfig.DOpts.Fault = s.Fault
		sess.SimConfig.IOpts.Fault = s.Fault
	}

	// Eager validation: every structural error a simulation build could
	// hit surfaces here, before any source is loaded or access replayed.
	if err := sess.SimConfig.DOpts.Validate(hier.L1D.Geometry.LineBytes); err != nil {
		return nil, err
	}
	if err := sess.SimConfig.IOpts.Validate(hier.L1I.Geometry.LineBytes); err != nil {
		return nil, err
	}
	for i := range sess.SimConfig.SharedOpts {
		o := sess.SimConfig.SharedOpts[i]
		if o.Table.Name == "" {
			// The engine defaults an unset table to the D-cache's; validate
			// what will actually run.
			o.Table = sess.SimConfig.DOpts.Table
		}
		if err := o.Validate(hier.Shared[i].Geometry.LineBytes); err != nil {
			return nil, fmt.Errorf("run: %s: %w", hier.LevelName(i), err)
		}
	}

	// Resolved per-level descriptions, for introspection (cntsim -inspect).
	dVariant := sess.name
	if dVariant == "" {
		dVariant = sess.SimConfig.DOpts.Spec.String()
	}
	if iName == "" {
		iName = sess.SimConfig.IOpts.Spec.String()
	}
	l1dName, l1iName := hier.L1D.Name, hier.L1I.Name
	if l1dName == "" {
		l1dName = "L1D"
	}
	if l1iName == "" {
		l1iName = "L1I"
	}
	sess.levels = []LevelDesc{
		{Name: l1dName, Geometry: hier.L1D.Geometry, Device: sess.SimConfig.DOpts.Table.Name, Variant: dVariant},
		{Name: l1iName, Geometry: hier.L1I.Geometry, Device: sess.SimConfig.IOpts.Table.Name, Variant: iName},
	}
	for i := range hier.Shared {
		sess.levels = append(sess.levels, LevelDesc{
			Name: hier.LevelName(i), Geometry: hier.Shared[i].Geometry,
			Device: levelDevices[i], Variant: levelVariants[i],
		})
	}
	return sess, nil
}

// Levels describes every resolved level of the session's hierarchy:
// L1D, L1I, then the shared levels outermost-first. Geometry, device
// and variant are post-default values — what the simulation actually
// runs.
func (sess *Session) Levels() []LevelDesc { return sess.levels }

// Configure resolves and validates the spec without touching its
// source, returning the engine configuration it describes. This is the
// seam config.File.Resolve and eager CLI vetting use: a Spec can be
// checked completely before any workload is built.
func (s Spec) Configure() (core.SimConfig, error) {
	sess, err := s.configure()
	if err != nil {
		return core.SimConfig{}, err
	}
	return sess.SimConfig, nil
}

// Resolve validates the whole spec — source included — and loads the
// access stream, returning a Session ready to Run.
func (s Spec) Resolve() (*Session, error) {
	if err := s.Source.Validate(); err != nil {
		return nil, err
	}
	sess, err := s.configure()
	if err != nil {
		return nil, err
	}
	span := s.Tracer.StartSpan("load", s.SpanParent)
	inst, memoHit, err := s.Source.LoadCounted(sess.seed)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	span.Annotate("source", inst.Name).AnnotateInt("accesses", int64(len(inst.Accesses)))
	if s.Source.Kernel != "" {
		// Only kernel sources go through the instance memo; hit means the
		// immutable instance was shared, not rebuilt.
		if memoHit {
			span.Annotate("memo", "hit")
		} else {
			span.Annotate("memo", "miss")
		}
	}
	span.End()
	sess.Instance = inst
	return sess, nil
}

// Run resolves the spec and executes it — the one-call path.
func (s Spec) Run() (*Report, error) {
	sess, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	return sess.Run()
}

// Run executes the session: fresh memory image, one simulation, one
// report. A session can be Run more than once; each run is independent.
func (sess *Session) Run() (*Report, error) {
	return sess.RunContext(context.Background())
}

// cancelCheckInterval is how many accesses RunContext replays between
// context checks. Power of two so the check is one mask; coarse enough
// that the check never shows up on the hot path, fine enough that a
// cancellation lands within microseconds.
const cancelCheckInterval = 4096

// RunContext is Run under a context: replay aborts at the next check
// interval once ctx is cancelled or its deadline passes, returning
// ctx.Err() (wrapped with replay position). A cancelled run produces no
// report — single simulations are all-or-nothing; partial salvage is a
// Compare-level concept, where the units are independent.
func (sess *Session) RunContext(ctx context.Context) (*Report, error) {
	return sess.runSpan(ctx, nil)
}

// RunSnapshot is RunContext that also captures the D-cache encoding
// state at the end of the run (after the final drain), for cntsim
// -inspect. A run that fails yields no snapshot.
func (sess *Session) RunSnapshot(ctx context.Context) (*Report, core.Snapshot, error) {
	var snap core.Snapshot
	rep, err := sess.runSpan(ctx, &snap)
	return rep, snap, err
}

// runSpan wraps runContext in the run span, so the span sees every exit
// path.
func (sess *Session) runSpan(ctx context.Context, snap *core.Snapshot) (*Report, error) {
	span := sess.tracer.StartSpan("run", sess.spanParent).
		Annotate("workload", sess.Instance.Name).
		AnnotateInt("accesses", int64(len(sess.Instance.Accesses)))
	rep, err := sess.runContext(ctx, snap)
	if err == nil && rep.Variant != "" {
		span.Annotate("variant", rep.Variant)
	}
	span.EndErr(err)
	return rep, err
}

// runContext replays the instance through a fresh simulation, fills
// *snap (when non-nil) from the finished D-cache, and releases the
// simulation's arrays to the recycler.
func (sess *Session) runContext(ctx context.Context, snap *core.Snapshot) (*Report, error) {
	m := mem.New()
	sess.Instance.Preload(m)
	sim, err := core.NewSim(sess.SimConfig, m)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	// Replay in blocks of the cancel-check interval: the context check
	// lands on exactly the same access indices the per-access loop
	// checked at, and the block in between runs on the batched path.
	accs := sess.Instance.Accesses
	for base := 0; base < len(accs); base += cancelCheckInterval {
		if err := ctx.Err(); err != nil {
			verb := "cancelled"
			if errors.Is(err, context.DeadlineExceeded) {
				verb = "deadline exceeded"
			}
			return nil, fmt.Errorf("run: %s %s at access %d of %d: %w",
				sess.Instance.Name, verb, base, len(accs), err)
		}
		end := base + cancelCheckInterval
		if end > len(accs) {
			end = len(accs)
		}
		if n, err := sim.StepBatch(accs[base:end]); err != nil {
			return nil, fmt.Errorf("run: %s access %d: %w", sess.Instance.Name, base+n, err)
		}
	}
	rep := sim.Finish(sess.Instance.Name, sess.SimConfig.DOpts.Spec.String())
	if sess.name != "" {
		rep.Variant = sess.name
	}
	if snap != nil {
		*snap = sim.Snapshot()
	}
	return &Report{Report: rep, Instance: sess.Instance}, nil
}

// Compare runs the session's instance under the registered comparison
// set on a background context; see CompareContext.
func (sess *Session) Compare() (*core.Comparison, error) {
	return sess.CompareContext(context.Background())
}

// compareRetryBackoff is the base backoff between transient-failure
// retries of a Compare cell (doubles per attempt).
const compareRetryBackoff = 10 * time.Millisecond

// CompareContext runs the session's instance under the registered
// comparison set (core.ComparisonVariants on this session's parameter
// bundle), fanning the variants out across the spec's worker budget.
// The comparison runs without telemetry — the variants' event streams
// would interleave into one unattributable trace. Results come back in
// variant order regardless of scheduling, so rendered output is
// byte-identical for any Jobs value.
//
// Failure is partial, not all-or-nothing: when some cells fail — their
// own error, a recovered panic (*PanicError), or cancellation before
// dispatch — the comparison is still returned with the completed
// reports in place, nil entries for the lost cells, and a *PartialError
// naming each failure. Cells that fail with a transient error
// (IsTransient) are retried up to the spec's Retries budget with
// exponential backoff before counting as lost.
func (sess *Session) CompareContext(ctx context.Context) (*core.Comparison, error) {
	if !sess.paramsOK {
		return nil, fmt.Errorf("run: Compare needs a variant resolved by name and params, not explicit options")
	}
	variants := core.ComparisonVariants(sess.params)
	cmp := &core.Comparison{
		Workload: sess.Instance.Name,
		Reports:  make([]*core.Report, len(variants)),
		Names:    make([]string, len(variants)),
	}
	for i, v := range variants {
		cmp.Names[i] = v.Name
	}
	cspan := sess.tracer.StartSpan("compare", sess.spanParent).
		Annotate("workload", sess.Instance.Name).
		AnnotateInt("cells", int64(len(variants))).
		AnnotateInt("jobs", int64(Jobs(sess.jobs)))
	errs := ParallelResultsWorkers(ctx, Jobs(sess.jobs), len(variants), func(worker, i int) error {
		v := variants[i]
		// Every cell inherits the session's fault model (nil for a healthy
		// run): the variants compete on the same defective array, exactly
		// like the graceful-degradation sweep.
		opts := v.Opts
		opts.Fault = sess.SimConfig.DOpts.Fault
		// Shared levels are kept identical across cells: the comparison
		// varies the L1 encoding only.
		cfg := core.SimConfig{
			Hierarchy: sess.SimConfig.Hierarchy,
			DOpts:     opts, IOpts: opts,
			SharedOpts: sess.SimConfig.SharedOpts,
		}
		attempt := 0
		return Retry(ctx, sess.retries, compareRetryBackoff, func() error {
			attempt++
			// One span per attempt: a retried cell shows every try, each
			// annotated with the worker that ran it. cspan.Child is safe
			// from worker goroutines — it reads only immutable identity.
			span := cspan.Child("cell").
				Annotate("variant", v.Name).
				AnnotateInt("worker", int64(worker)).
				AnnotateInt("attempt", int64(attempt))
			err := func() error {
				if h := sess.compareHook; h != nil {
					if err := h(i); err != nil {
						return err
					}
				}
				rep, err := core.RunInstance(sess.Instance, cfg)
				if err != nil {
					return fmt.Errorf("run: variant %s: %w", v.Name, err)
				}
				rep.Variant = v.Name
				cmp.Reports[i] = rep
				return nil
			}()
			span.EndErr(err)
			return err
		})
	})
	var perr *PartialError
	for i, err := range errs {
		if err != nil {
			if perr == nil {
				perr = &PartialError{}
			}
			perr.Cells = append(perr.Cells, CellError{Name: cmp.Names[i], Err: err})
		}
	}
	if perr != nil {
		cspan.EndErr(perr)
		return cmp, perr
	}
	cspan.End()
	return cmp, nil
}
