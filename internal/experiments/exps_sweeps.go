package experiments

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runE6 maps where adaptive encoding wins (Fig. 6): a grid of synthetic
// workloads over read fraction and data one-density. The crossovers —
// where the saving goes to zero — are the shape to check: dense balanced
// data offers nothing to encode; zero-heavy read-dominated data is the
// best case.
func runE6(cfg Config) (*Table, error) {
	readFracs := []float64{0.0, 0.25, 0.5, 0.75, 0.9, 1.0}
	densities := []float64{0.05, 0.2, 0.5, 0.8}
	accesses := 60000
	if cfg.Quick {
		readFracs = []float64{0.0, 0.5, 1.0}
		densities = []float64{0.05, 0.5}
		accesses = 15000
	}
	cols := []string{"read frac"}
	for _, d := range densities {
		cols = append(cols, fmt.Sprintf("cnt d=%.2f", d), fmt.Sprintf("sread d=%.2f", d))
	}
	t := &Table{
		ID: "E6", Kind: "Fig. 6", Tag: "[reconstructed]",
		Title:   "D-cache saving vs read fraction (rows) and one-density: adaptive CNT-Cache vs static-read inversion",
		Columns: cols,
	}
	hier := cache.DefaultHierarchyConfig()
	base := core.BaselineOptions()
	opts := core.DefaultOptions()
	sread, err := core.BuildVariant("static-read", core.DefaultParams())
	if err != nil {
		return nil, err
	}
	// One unit per grid cell (read fraction x density), three simulations
	// each; rows are assembled from the cell results in grid order.
	type cell struct{ cnt, sread float64 }
	cells := make([]cell, len(readFracs)*len(densities))
	err = parallelFor(cfg, len(cells), func(i int) error {
		rf := readFracs[i/len(densities)]
		d := densities[i%len(densities)]
		inst, err := workload.Mix(workload.MixConfig{
			ReadFraction: rf, OneDensity: d, Accesses: accesses,
			FootprintBytes: 48 * 1024, HotFraction: 0.8,
		}, cfg.Seed)
		if err != nil {
			return err
		}
		bRep, cRep, err := runPair(cfg, inst, hier, base, opts)
		if err != nil {
			return err
		}
		sRep, err := runOne(cfg, inst, hier, sread)
		if err != nil {
			return err
		}
		bt := bRep.DEnergy.Total()
		cells[i] = cell{
			cnt:   energy.Saving(bt, cRep.DEnergy.Total()),
			sread: energy.Saving(bt, sRep.DEnergy.Total()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ri, rf := range readFracs {
		row := []interface{}{fmt.Sprintf("%.2f", rf)}
		for di := range densities {
			c := cells[ri*len(densities)+di]
			row = append(row, pct(c.cnt), pct(c.sread))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"best case for both: low density + extreme read fraction; near-zero at density 0.5 (nothing to encode)",
		"the adaptive predictor's value concentrates in the write-dominated dense corner, where static-read inversion loses badly")
	return t, t.Validate()
}

// runE9 runs the bundled ISA programs through the split-L1 hierarchy
// (Fig. 8): instruction streams are read-only, so the I-cache converges
// to fully read-oriented encoding, while the D-cache sees each program's
// own mix.
func runE9(cfg Config) (*Table, error) {
	names := isa.ProgramNames()
	if cfg.Quick {
		names = []string{"matmul", "stride", "pchase"}
	}
	t := &Table{
		ID: "E9", Kind: "Fig. 8", Tag: "[reconstructed]",
		Title:   "I-cache vs D-cache savings on ISA programs",
		Columns: []string{"program", "insts", "I saving", "D saving", "I base (nJ)", "D base (nJ)"},
	}
	hier := cache.DefaultHierarchyConfig()
	base := core.BaselineOptions()
	opts := core.DefaultOptions()

	type progResult struct {
		steps  uint64
		iS, dS float64
		iB, dB float64
	}
	results := make([]progResult, len(names))
	err := parallelFor(cfg, len(names), func(i int) error {
		name := names[i]
		src := isa.Programs()[name]
		prog, err := isa.Assemble(src, isa.CodeBase)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		run := func(o core.Options) (*core.Report, uint64, error) {
			m := mem.New()
			sim, err := core.NewSim(core.SimConfig{Hierarchy: hier, DOpts: o, IOpts: o}, m)
			if err != nil {
				return nil, 0, err
			}
			defer sim.Release()
			vm := isa.NewVM(m, trace.SinkFunc(sim.Step))
			vm.Load(prog)
			if err := vm.Run(isa.DefaultMaxSteps); err != nil {
				return nil, 0, err
			}
			return sim.Finish(name, o.Spec.String()), vm.Steps(), nil
		}
		bRep, _, err := run(base)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		cRep, steps, err := run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		results[i] = progResult{
			steps: steps,
			iS:    energy.Saving(bRep.IEnergy.Total(), cRep.IEnergy.Total()),
			dS:    energy.Saving(bRep.DEnergy.Total(), cRep.DEnergy.Total()),
			iB:    bRep.IEnergy.Total(),
			dB:    bRep.DEnergy.Total(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sumI, sumD float64
	for i, name := range names {
		r := results[i]
		sumI += r.iS
		sumD += r.dS
		t.AddRow(name, r.steps, pct(r.iS), pct(r.dS), nj(r.iB), nj(r.dB))
	}
	n := float64(len(names))
	t.AddRow("average", "", pct(sumI/n), pct(sumD/n), "", "")
	t.Notes = append(t.Notes,
		"instruction fetch is read-only, so the I-cache should show consistent savings whose size depends on opcode bit density")
	return t, t.Validate()
}

// RunAll executes every experiment and returns the tables in ID order.
// Each experiment parallelizes internally; the experiments themselves
// run in sequence (cmd/cntbench overlaps them with -jobs).
func RunAll(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, e := range Registry() {
		if err := cfg.context().Err(); err != nil {
			return nil, fmt.Errorf("%s: not started: %w", e.ID, err)
		}
		tab, err := e.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, tab)
	}
	sort.Slice(out, func(i, j int) bool { return idOrder(out[i].ID) < idOrder(out[j].ID) })
	return out, nil
}
