package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"
)

// replayWL is the simulator core alone: fresh core.NewSim → StepBatch →
// Finish simulations of every suite kernel on the default hierarchy,
// one goroutine in a closed loop, baseline and cnt-cache passes
// alternating so drift in the host hits both alike.
type replayWL struct {
	b     *bench
	insts []*workload.Instance
	// passAccesses is how many accesses one suite pass simulates, as
	// the reports count them (line-split pieces included).
	passAccesses uint64
	// ref holds the first pass's report per kernel and variant; every
	// later pass must reproduce it bit for bit.
	ref map[string]*core.Report
	// rates are accesses per host second, one per timed pass.
	rates map[string][]float64
	// accesses is the total simulated in timed passes.
	accesses uint64
}

// replayVariant is one side of the alternation.
type replayVariant struct {
	name string
	cfg  core.SimConfig
}

func replayVariants() []replayVariant {
	hier := core.DefaultSimConfig().Hierarchy
	return []replayVariant{
		{"baseline", core.SimConfig{Hierarchy: hier, DOpts: core.BaselineOptions(), IOpts: core.BaselineOptions()}},
		{"cnt-cache", core.SimConfig{Hierarchy: hier, DOpts: core.DefaultOptions(), IOpts: core.DefaultOptions()}},
	}
}

// setup builds the suite instances.
func (r *replayWL) setup(parent *obs.Span) {
	suite := workload.Suite()
	r.insts = make([]*workload.Instance, len(suite))
	for i, kb := range suite {
		sp := child(parent, "workload.build", kb.Name)
		r.insts[i] = kb.Build(r.b.opt.seed)
		endN(sp, int64(len(r.insts[i].Accesses)))
	}
}

// pass replays the whole suite once under v and returns the reports.
func (r *replayWL) pass(v replayVariant, parent *obs.Span) ([]*core.Report, error) {
	reps := make([]*core.Report, len(r.insts))
	for i, inst := range r.insts {
		sp := child(parent, "core.newsim", inst.Name)
		m := mem.New()
		inst.Preload(m)
		sim, err := core.NewSim(v.cfg, m)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("replay %s/%s: %w", inst.Name, v.name, err)
		}
		sp = child(parent, "core.step", v.name)
		n, err := sim.StepBatch(inst.Accesses)
		endN(sp, int64(n))
		if err != nil {
			return nil, fmt.Errorf("replay %s/%s access %d: %w", inst.Name, v.name, n, err)
		}
		sp = child(parent, "core.finish", v.name)
		reps[i] = sim.Finish(inst.Name, v.name)
		sp.End()
	}
	return reps, nil
}

// verify checks one pass's reports: every report passes the energy and
// traffic audit, and reproduces the first pass bit for bit. It counts
// one operation per simulation and returns the accesses simulated.
func (r *replayWL) verify(v replayVariant, reps []*core.Report, parent *obs.Span) uint64 {
	sp := child(parent, "check.replay", v.name)
	defer sp.End()
	var accesses uint64
	r.b.out.attempt(len(reps))
	for _, rep := range reps {
		accesses += rep.DStats.Accesses + rep.IStats.Accesses
		if err := check.AuditReport(rep); err != nil {
			r.b.out.fail("replay audit: %v", err)
			continue
		}
		key := rep.Workload + "/" + v.name
		if first, ok := r.ref[key]; !ok {
			r.ref[key] = rep
		} else if !reflect.DeepEqual(first, rep) {
			r.b.out.fail("replay %s: report differs from the first pass", key)
		}
	}
	return accesses
}

// warm runs one untimed pass per variant: it fills the reference
// reports, fixes the pass size and, at seed 1, checks each kernel's
// baseline energy and cnt-cache saving against results/E3.csv.
func (r *replayWL) warm() error {
	r.ref = map[string]*core.Report{}
	r.rates = map[string][]float64{}
	byVariant := map[string][]*core.Report{}
	for _, v := range replayVariants() {
		reps, err := r.pass(v, nil)
		if err != nil {
			return err
		}
		r.passAccesses = r.verify(v, reps, nil)
		byVariant[v.name] = reps
	}
	if r.b.opt.seed == 1 {
		r.checkE3(byVariant["baseline"], byVariant["cnt-cache"])
	}
	return nil
}

// checkE3 compares the seed-1 pass with the committed headline table.
func (r *replayWL) checkE3(base, cnt []*core.Report) {
	r.b.out.attempt(1)
	rows, err := readCSV(filepath.Join(r.b.root, "results", "E3.csv"))
	if err != nil {
		r.b.out.fail("replay E3 check: %v", err)
		return
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	want := map[string][]string{}
	for _, row := range rows[1:] {
		want[row[0]] = row
	}
	for i := range base {
		name := base[i].Workload
		row, ok := want[name]
		if !ok {
			r.b.out.fail("replay E3 check: kernel %s missing from E3.csv", name)
			return
		}
		b, c := base[i].DEnergy.Total(), cnt[i].DEnergy.Total()
		gotBase := fmt.Sprintf("%.1f", b/1e6)
		gotSave := fmt.Sprintf("%+.1f%%", 100*energy.Saving(b, c))
		if gotBase != row[col["baseline (nJ)"]] || gotSave != row[col["cnt-cache"]] {
			r.b.out.fail("replay E3 check: %s baseline %s nJ saving %s, E3.csv has %s nJ %s",
				name, gotBase, gotSave, row[col["baseline (nJ)"]], row[col["cnt-cache"]])
			return
		}
	}
}

func readCSV(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("%s: no data rows", path)
	}
	return rows, nil
}

// minReplayPairs is the floor of alternating pass pairs a run times.
const minReplayPairs = 12

// measure alternates timed baseline and cnt-cache passes until the
// budget is spent and at least minPairs pairs ran, and returns the pairs
// run. Each pass is checked after its clock stops.
func (r *replayWL) measure(budget time.Duration, minPairs int, parent *obs.Span) int {
	vs := replayVariants()
	start := time.Now()
	pair := 0
	for ; pair < minPairs || time.Since(start) < budget; pair++ {
		for i := range vs {
			// Alternate which variant leads each pair.
			v := vs[(i+pair)%len(vs)]
			sp := child(parent, "replay.pass", v.name)
			t0 := time.Now()
			reps, err := r.pass(v, sp)
			secs := time.Since(t0).Seconds()
			sp.End()
			if err != nil {
				r.b.out.attempt(1)
				r.b.out.fail("%v", err)
				continue
			}
			n := r.verify(v, reps, parent)
			r.accesses += n
			r.rates[v.name] = append(r.rates[v.name], float64(n)/secs)
		}
	}
	return pair
}
