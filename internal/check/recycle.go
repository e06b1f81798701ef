package check

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sram"
	"repro/internal/workload"
)

// Recycling differential: core.NewSim draws every level's arrays from
// the process-wide recycler (internal/recycle) and Sim.Release hands
// them back, so a simulation may start on arrays whose previous user
// left them full of valid, dirty, encoded lines. The contract is that
// this is invisible: a simulation built from recycled arrays reports
// exactly what one built from fresh allocations reports.

// RecycleCase is one cell of the recycling matrix: a workload and the
// configuration it runs under, plus the dirty simulation that runs and
// is released just before it, so the cell's simulation starts on the
// arrays it left behind.
type RecycleCase struct {
	// Name identifies the cell in failure messages.
	Name string
	// Inst and Cfg are the simulation under test.
	Inst *workload.Instance
	Cfg  core.SimConfig
	// Dirty and DirtyCfg are the predecessor whose arrays it inherits.
	Dirty    *workload.Instance
	DirtyCfg core.SimConfig
}

// swappedL1s returns the hierarchy with the two L1 geometries
// exchanged: a different organization whose arrays have the same
// lengths (both default L1s hold 512 lines), so its released arrays are
// exactly the ones the unswapped hierarchy draws.
func swappedL1s(h cache.HierarchyConfig) cache.HierarchyConfig {
	h.L1D.Geometry, h.L1I.Geometry = h.L1I.Geometry, h.L1D.Geometry
	return h
}

// RecycleEquivalenceCases enumerates the matrix: every suite kernel
// (cut to a prefix of at most accesses) under the baseline, cnt-cache,
// a fault-injected cnt-cache, word granularity and a three-level
// hierarchy with encoded L2 and L3 (the E15 shape). Each cell's dirty
// predecessor replays another kernel under the next configuration in
// that list, on the swapped-L1 geometry.
func RecycleEquivalenceCases(seed int64, accesses int) []RecycleCase {
	fc := fault.AtRate(1e-3, seed)
	fc.EnergySpread = 0.1
	plain := func(o core.Options) core.SimConfig {
		return core.SimConfig{Hierarchy: cache.DefaultHierarchyConfig(), DOpts: o, IOpts: o}
	}
	faulted := core.DefaultOptions()
	faulted.Fault = &fc
	word := core.DefaultOptions()
	word.Granularity = core.GranularityWord
	deep := plain(core.DefaultOptions())
	deep.Hierarchy.Shared = append(deep.Hierarchy.Shared,
		cache.Config{Name: "L3", Geometry: sram.Geometry{Sets: 2048, Ways: 8, LineBytes: 64}})
	deep.SharedOpts = []core.Options{core.DefaultOptions(), core.DefaultOptions()}
	configs := []struct {
		name string
		cfg  core.SimConfig
	}{
		{"baseline", plain(core.BaselineOptions())},
		{"cnt-cache", plain(core.DefaultOptions())},
		{"faults", plain(faulted)},
		{"word", plain(word)},
		{"3-level", deep},
	}
	var insts []*workload.Instance
	for _, b := range workload.Suite() {
		inst := b.Build(seed)
		if len(inst.Accesses) > accesses {
			inst = &workload.Instance{Name: inst.Name, Init: inst.Init, Accesses: inst.Accesses[:accesses]}
		}
		insts = append(insts, inst)
	}
	var cases []RecycleCase
	for ki, inst := range insts {
		for ci, c := range configs {
			d := configs[(ci+1)%len(configs)]
			dirtyCfg := d.cfg
			dirtyCfg.Hierarchy = swappedL1s(d.cfg.Hierarchy)
			cases = append(cases, RecycleCase{
				Name:     fmt.Sprintf("%s/%s after %s", inst.Name, c.name, d.name),
				Inst:     inst,
				Cfg:      c.cfg,
				Dirty:    insts[(ki+1)%len(insts)],
				DirtyCfg: dirtyCfg,
			})
		}
	}
	return cases
}

// recycleReplay runs inst through a new simulation, reports, and
// releases it when release is set.
func recycleReplay(inst *workload.Instance, cfg core.SimConfig, release bool) (*core.Report, error) {
	m := mem.New()
	inst.Preload(m)
	sim, err := core.NewSim(cfg, m)
	if err != nil {
		return nil, err
	}
	if release {
		defer sim.Release()
	}
	if err := sim.RunBatch(inst.Name, 0, inst.Accesses); err != nil {
		return nil, err
	}
	return sim.Finish(inst.Name, cfg.DOpts.Spec.String()), nil
}

// RecycleReferences runs every case once without releasing anything,
// so none of these simulations hands arrays to another: after
// recycle.Drain, their reports are those of freshly allocated arrays.
func RecycleReferences(cases []RecycleCase) ([]*core.Report, error) {
	refs := make([]*core.Report, len(cases))
	for i, c := range cases {
		rep, err := recycleReplay(c.Inst, c.Cfg, false)
		if err != nil {
			return nil, fmt.Errorf("check: %s: fresh replay: %w", c.Name, err)
		}
		refs[i] = rep
	}
	return refs, nil
}

// RecycleEquivalenceSuite runs each case's dirty predecessor to
// completion without finishing it, releases it, then runs the case on
// what it left and requires a report reflect.DeepEqual to refs[i]. Cases
// run on jobs concurrent workers, so arrays also move between
// goroutines; the lowest-indexed failure is returned.
func RecycleEquivalenceSuite(cases []RecycleCase, refs []*core.Report, jobs int) error {
	if jobs <= 0 {
		return fmt.Errorf("check: jobs must be positive, got %d", jobs)
	}
	errs := make([]error, len(cases))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i := range cases {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = recycleCell(&cases[i], refs[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func recycleCell(c *RecycleCase, ref *core.Report) error {
	m := mem.New()
	c.Dirty.Preload(m)
	dirty, err := core.NewSim(c.DirtyCfg, m)
	if err != nil {
		return fmt.Errorf("%s: dirty predecessor: %w", c.Name, err)
	}
	if err := dirty.RunBatch(c.Dirty.Name, 0, c.Dirty.Accesses); err != nil {
		return fmt.Errorf("%s: dirty predecessor: %w", c.Name, err)
	}
	// Released mid-flight: valid dirty lines, live predictor windows and
	// queued re-encodes all go back to the recycler as they are.
	dirty.Release()
	rep, err := recycleReplay(c.Inst, c.Cfg, true)
	if err != nil {
		return fmt.Errorf("%s: recycled replay: %w", c.Name, err)
	}
	if !reflect.DeepEqual(rep, ref) {
		return fmt.Errorf("check: %s: report on recycled arrays diverges from fresh:\n--- fresh ---\n%+v\n--- recycled ---\n%+v",
			c.Name, ref, rep)
	}
	return nil
}
