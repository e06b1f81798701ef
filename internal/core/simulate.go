package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/fifo"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SimConfig describes one end-to-end simulation: the hierarchy geometry
// and the encoding variant of every level. Each level — the split L1s
// and every shared level below them — is a fully energy-modeled CNFET
// array; the paper optimizes the L1s, and the per-level options open
// the same machinery to the L2 writeback path and deeper levels.
type SimConfig struct {
	// Hierarchy is the cache organization.
	Hierarchy cache.HierarchyConfig
	// DOpts configures the L1 D-cache variant.
	DOpts Options
	// IOpts configures the L1 I-cache variant.
	IOpts Options
	// SharedOpts configures the shared levels, parallel to
	// Hierarchy.Shared. Missing entries (and entries whose energy table
	// is unset) run the plain unencoded baseline on the D-cache's
	// table, which keeps a default L2 architecturally and energetically
	// equivalent to the pre-refactor plain cache.
	SharedOpts []Options
}

// DefaultSimConfig returns the experiment configuration: CNT-Cache on both
// L1s over the default hierarchy.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Hierarchy: cache.DefaultHierarchyConfig(),
		DOpts:     DefaultOptions(),
		IOpts:     DefaultOptions(),
	}
}

// Report is the outcome of one simulation run.
type Report struct {
	// Workload names the instance that ran.
	Workload string
	// Variant names the D-cache encoding variant.
	Variant string

	// DStats and IStats are the architectural counters.
	DStats, IStats cache.Stats
	// DEnergy and IEnergy are the dynamic-energy breakdowns.
	DEnergy, IEnergy energy.Breakdown
	// DFIFO is the D-cache update-queue accounting.
	DFIFO fifo.Stats
	// DSwitches and DWindows count direction switches and completed
	// prediction windows in the D-cache.
	DSwitches, DWindows uint64
	// DMetaBits is the H&D width per line of the D-cache variant.
	DMetaBits int
	// DLeakage and ILeakage are the standby-leakage estimates (fJ),
	// reported separately from the dynamic breakdowns.
	DLeakage, ILeakage float64
	// DFaults and IFaults are the fault-injection accounting per L1
	// (all-zero when the run was fault-free).
	DFaults, IFaults fault.Stats

	// Levels is the per-level breakdown of the whole hierarchy, in
	// topological order: L1D, L1I, then every shared level outermost-
	// first (L2, L3, ...). Levels[0] and Levels[1] restate the legacy
	// D/I fields above — internal/check audits that they agree — and
	// the shared entries are what the flat fields never carried: the
	// energy, stats and leakage of the levels below the L1s.
	Levels []LevelReport
}

// LevelReport is one cache level's slice of a Report.
type LevelReport struct {
	// Name labels the level ("L1D", "L1I", "L2", ...).
	Name string
	// Variant is the level's encoding spec ("none", "adaptive/8", ...).
	Variant string
	// Stats are the architectural counters.
	Stats cache.Stats
	// Energy is the dynamic-energy breakdown.
	Energy energy.Breakdown
	// FIFO is the update-queue accounting (zero for non-adaptive).
	FIFO fifo.Stats
	// Switches and Windows count direction switches and completed
	// prediction windows.
	Switches, Windows uint64
	// MetaBits is the H&D width per line.
	MetaBits int
	// Leakage is the standby-leakage estimate (fJ).
	Leakage float64
	// Faults is the fault-injection accounting.
	Faults fault.Stats
}

// Level returns the named level's report, or nil.
func (r *Report) Level(name string) *LevelReport {
	for i := range r.Levels {
		if r.Levels[i].Name == name {
			return &r.Levels[i]
		}
	}
	return nil
}

// Sim is a ready-to-run simulation over one memory image.
//
// Lifecycle: NewSim builds every level from arrays drawn from the
// process-wide recycler (package recycle); Step/StepBatch/RunBatch
// replay; Finish reports; Release hands the arrays back so the next
// simulation of the same shape reuses them. Whoever discards a Sim
// should Release it once its report and any Snapshot are taken — the
// run layer, RunInstance and the experiment loops do. A Sim that is
// never released is simply garbage collected.
type Sim struct {
	Mem *mem.Memory
	L1D *CNTCache
	L1I *CNTCache
	// Shared holds the shared lower levels outermost-first (Shared[0]
	// is the L2 when present), each an energy-modeled CNTCache serving
	// as the backend of the levels above it.
	Shared []*CNTCache

	released bool
}

// ErrReleased is returned by Step and StepBatch on a released Sim.
var ErrReleased = errors.New("core: simulation already released")

// Release returns every level's arrays to the recycler. The Sim is
// unusable afterwards: Step and StepBatch return ErrReleased, and
// Finish and Snapshot panic. A second Release does nothing. Reports
// already returned by Finish hold no reference into the arrays and
// stay valid.
func (s *Sim) Release() {
	if s.released {
		return
	}
	s.released = true
	for _, c := range s.levels() {
		c.release()
	}
}

// mustLive panics when the Sim has been released.
func (s *Sim) mustLive(op string) {
	if s.released {
		panic("core: " + op + " on a released simulation")
	}
}

// NewSim wires up the hierarchy bottom-up: every level is a CNTCache —
// the shared levels on their configured options (plain baseline on the
// D-cache's table by default) and the CNT-wrapped L1s on top.
func NewSim(cfg SimConfig, m *mem.Memory) (*Sim, error) {
	if m == nil {
		return nil, fmt.Errorf("core: simulation needs a memory image")
	}
	hier := cfg.Hierarchy
	if err := hier.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.SharedOpts) > len(hier.Shared) {
		return nil, fmt.Errorf("core: %d shared-level options for %d shared levels",
			len(cfg.SharedOpts), len(hier.Shared))
	}
	s := &Sim{Mem: m, Shared: make([]*CNTCache, len(hier.Shared))}
	var lower cache.Backend = cache.MemBackend{M: m}
	for i := len(hier.Shared) - 1; i >= 0; i-- {
		lcfg := hier.Shared[i]
		if lcfg.Name == "" {
			lcfg.Name = hier.LevelName(i)
		}
		opts := Options{Table: cfg.DOpts.Table}
		if i < len(cfg.SharedOpts) {
			opts = cfg.SharedOpts[i]
			if opts.Table.Name == "" {
				opts.Table = cfg.DOpts.Table
			}
		}
		lvl, err := New(lcfg, lower, opts)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", lcfg.Name, err)
		}
		s.Shared[i] = lvl
		lower = lvl
	}
	l1d, err := New(hier.L1D, lower, cfg.DOpts)
	if err != nil {
		return nil, err
	}
	l1i, err := New(hier.L1I, lower, cfg.IOpts)
	if err != nil {
		return nil, err
	}
	s.L1D, s.L1I = l1d, l1i
	return s, nil
}

// L2 returns the first shared level, or nil when the L1s sit directly
// on memory.
func (s *Sim) L2() *CNTCache {
	if len(s.Shared) == 0 {
		return nil
	}
	return s.Shared[0]
}

// Step advances the simulation by one access, routing it to the right
// L1. The engine stays inspectable between steps — Snapshot renders the
// live D-cache state — which is what cmd/cntsim's -inspect mode and any
// future interactive driver build on.
func (s *Sim) Step(a trace.Access) error {
	if s.released {
		return ErrReleased
	}
	if a.Op == trace.Fetch {
		return s.L1I.Access(a)
	}
	return s.L1D.Access(a)
}

// Snapshot captures the D-cache's current encoding state (per-line
// masks, history counters, queue occupancy). Valid at any point between
// steps, up to Release.
func (s *Sim) Snapshot() Snapshot {
	s.mustLive("Snapshot")
	return s.L1D.Snapshot()
}

// StepBatch advances the simulation by a block of accesses — the batch
// equivalent of calling Step on each in order. Consecutive accesses
// bound for the same L1 are handed to that cache's AccessBatch in one
// run, so the per-access routing branch is paid once per run instead of
// once per access. It returns the number of accesses fully applied; on
// error, accs[n] is the access that failed.
func (s *Sim) StepBatch(accs []trace.Access) (int, error) {
	if s.released {
		return 0, ErrReleased
	}
	if s.L1D.hot && s.L1I.hot {
		// Both L1s on the fused fast path: route per access directly.
		// Instruction and data references interleave tightly in real
		// traces, so grouping into runs would pay the per-run dispatch
		// almost per access anyway.
		for i := range accs {
			c := s.L1D
			if accs[i].Op == trace.Fetch {
				c = s.L1I
			}
			if err := c.accessHotOne(&accs[i]); err != nil {
				return i, err
			}
		}
		return len(accs), nil
	}
	done := 0
	for done < len(accs) {
		isFetch := accs[done].Op == trace.Fetch
		end := done + 1
		for end < len(accs) && (accs[end].Op == trace.Fetch) == isFetch {
			end++
		}
		tgt := s.L1D
		if isFetch {
			tgt = s.L1I
		}
		n, err := tgt.AccessBatch(accs[done:end])
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// RunBatch replays one pre-decoded block through the live simulation,
// wrapping any failure with the workload name and the global access
// index (base is the index of accs[0] in the whole trace). Replay
// loops call it per block and Finish once at the end.
func (s *Sim) RunBatch(name string, base int, accs []trace.Access) error {
	if n, err := s.StepBatch(accs); err != nil {
		return fmt.Errorf("core: %s access %d: %w", name, base+n, err)
	}
	return nil
}

// Run replays a whole instance through the simulation and finishes it,
// labeling the report with the D-cache variant's spec.
func (s *Sim) Run(inst *workload.Instance) (*Report, error) {
	if err := s.RunBatch(inst.Name, 0, inst.Accesses); err != nil {
		return nil, err
	}
	return s.Finish(inst.Name, s.L1D.Options().Spec.String()), nil
}

// levels returns every cache level in Report.Levels order: L1D, L1I,
// then the shared levels outermost-first.
func (s *Sim) levels() []*CNTCache {
	return append([]*CNTCache{s.L1D, s.L1I}, s.Shared...)
}

// levelReport snapshots one level's slice of the report.
func levelReport(c *CNTCache) LevelReport {
	return LevelReport{
		Name:     c.Cache().Name(),
		Variant:  c.Options().Spec.String(),
		Stats:    c.Stats(),
		Energy:   c.Energy(),
		FIFO:     c.FIFOStats(),
		Switches: c.Switches(),
		Windows:  c.Windows(),
		MetaBits: c.MetaBitsPerLine(),
		Leakage:  c.Leakage(),
		Faults:   c.FaultStats(),
	}
}

// Finish drains pending updates on every level and reports. When a
// trace sink is attached it also closes each cache's event stream with
// a SummaryEvent carrying the exact final breakdown. Draining runs
// top-down (L1s first, then the shared levels) — a drain re-encodes in
// place and generates no backend traffic, so the per-level stats stay
// mutually consistent.
func (s *Sim) Finish(workloadName, variant string) *Report {
	s.mustLive("Finish")
	for _, c := range s.levels() {
		c.DrainAll()
	}
	for _, c := range s.levels() {
		c.EmitSummary()
	}
	rep := s.report(workloadName, variant)
	return rep
}

func (s *Sim) report(workloadName, variant string) *Report {
	levels := s.levels()
	rep := &Report{
		Workload:  workloadName,
		Variant:   variant,
		DStats:    s.L1D.Stats(),
		IStats:    s.L1I.Stats(),
		DEnergy:   s.L1D.Energy(),
		IEnergy:   s.L1I.Energy(),
		DFIFO:     s.L1D.FIFOStats(),
		DSwitches: s.L1D.Switches(),
		DWindows:  s.L1D.Windows(),
		DMetaBits: s.L1D.MetaBitsPerLine(),
		DLeakage:  s.L1D.Leakage(),
		ILeakage:  s.L1I.Leakage(),
		DFaults:   s.L1D.FaultStats(),
		IFaults:   s.L1I.FaultStats(),
	}
	rep.Levels = make([]LevelReport, len(levels))
	for i, c := range levels {
		rep.Levels[i] = levelReport(c)
	}
	return rep
}

// RunInstance replays a workload instance through a fresh simulation
// and releases it.
func RunInstance(inst *workload.Instance, cfg SimConfig) (*Report, error) {
	m := mem.New()
	inst.Preload(m)
	sim, err := NewSim(cfg, m)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	return sim.Run(inst)
}

// Variant couples a registry name with the options realizing it. See
// RegisterVariant/BuildVariant (variants.go) for the name → builder
// registry these are resolved through.
type Variant struct {
	Name string
	Opts Options
}

// Comparison is the result of running one workload across the variant set.
type Comparison struct {
	Workload string
	Reports  []*Report
	// Names[i] labels Reports[i].
	Names []string
}

// BaselineTotal returns the baseline variant's D-cache total energy.
func (c *Comparison) BaselineTotal() float64 {
	for i, n := range c.Names {
		if n == "baseline" {
			return c.Reports[i].DEnergy.Total()
		}
	}
	return 0
}

// SavingOf returns the fractional D-cache energy saving of the named
// variant relative to the baseline.
func (c *Comparison) SavingOf(name string) float64 {
	base := c.BaselineTotal()
	for i, n := range c.Names {
		if n == name {
			return energy.Saving(base, c.Reports[i].DEnergy.Total())
		}
	}
	return 0
}

// Compare runs the instance under every variant (identical hierarchy,
// fresh memory each time). Variants are independent simulations, so they
// run concurrently; results come back in variant order regardless.
func Compare(inst *workload.Instance, hier cache.HierarchyConfig, variants []Variant) (*Comparison, error) {
	cmp := &Comparison{
		Workload: inst.Name,
		Reports:  make([]*Report, len(variants)),
		Names:    make([]string, len(variants)),
	}
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		i, v := i, v
		cmp.Names[i] = v.Name
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := SimConfig{Hierarchy: hier, DOpts: v.Opts, IOpts: v.Opts}
			rep, err := RunInstance(inst, cfg)
			if err != nil {
				errs[i] = fmt.Errorf("core: variant %s: %w", v.Name, err)
				return
			}
			rep.Variant = v.Name
			cmp.Reports[i] = rep
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cmp, nil
}
