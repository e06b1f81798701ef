package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/run"
)

// regenWL is a full E1–E15 regeneration in-process, each repetition
// starting from empty memo caches so it pays every build a fresh
// cntbench process pays.
type regenWL struct {
	b *bench
	// walls are the timed repetitions' wall seconds.
	walls []float64
	// accesses is the total simulated in timed repetitions.
	accesses uint64
	// first holds the first repetition's CSV per experiment; later
	// repetitions must reproduce it byte for byte.
	first map[string]string
	// memoHit is the memo hit ratio of the last repetition.
	memoHit float64
}

// rep regenerates every table once and checks each one, counting one
// operation per experiment.
func (g *regenWL) rep(parent *obs.Span) float64 {
	if g.first == nil {
		g.first = map[string]string{}
	}
	sp := parent.Child("run.reset_memo")
	run.ResetMemo()
	sp.End()
	var counters experiments.RunCounters
	cfg := experiments.Config{Seed: g.b.opt.seed, Jobs: g.b.jobs, Counters: &counters}
	type out struct {
		id  string
		tab *experiments.Table
	}
	var tabs []out
	var errs []error
	t0 := time.Now()
	for _, e := range experiments.Registry() {
		sp := parent.Child("experiments." + e.ID)
		tab, err := e.Run(cfg)
		sp.End()
		if err != nil {
			errs = append(errs, fmt.Errorf("regen %s: %w", e.ID, err))
			continue
		}
		tabs = append(tabs, out{e.ID, tab})
	}
	wall := time.Since(t0).Seconds()
	g.accesses += counters.Accesses()
	st := run.Stats()
	hits := st.Instances.Hits + st.Baselines.Hits
	g.memoHit = float64(hits) / float64(hits+st.Instances.Builds+st.Baselines.Builds)

	sp = parent.Child("check.tables")
	defer sp.End()
	g.b.out.attempt(len(tabs) + len(errs))
	for _, err := range errs {
		g.b.out.fail("%v", err)
	}
	for _, t := range tabs {
		if err := t.tab.Validate(); err != nil {
			g.b.out.fail("regen %s: %v", t.id, err)
			continue
		}
		got := t.tab.CSV()
		if prev, ok := g.first[t.id]; !ok {
			g.first[t.id] = got
		} else if prev != got {
			g.b.out.fail("regen %s: CSV differs from the first repetition", t.id)
			continue
		}
		if g.b.opt.seed == 1 {
			want, err := os.ReadFile(filepath.Join(g.b.root, "results", t.id+".csv"))
			if err != nil {
				g.b.out.fail("regen %s: %v", t.id, err)
			} else if string(want) != got {
				g.b.out.fail("regen %s: CSV differs from results/%s.csv", t.id, t.id)
			}
		}
	}
	return wall
}

// measure runs timed repetitions until too little of the budget is left
// for half another one, never fewer than minReps.
func (g *regenWL) measure(budget time.Duration, minReps int, parent *obs.Span) {
	start := time.Now()
	for n := 0; n < minReps || time.Since(start)+time.Duration(median(g.walls)/2*float64(time.Second)) <= budget; n++ {
		sp := parent.Child("regen.rep")
		g.walls = append(g.walls, g.rep(sp))
		sp.End()
	}
}
