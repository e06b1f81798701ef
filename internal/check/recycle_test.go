package check

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/recycle"
)

// TestRecycleEquivalence runs the recycling matrix — every suite kernel
// under baseline, cnt-cache, faults, word granularity and an encoded
// three-level hierarchy, each started on the arrays of a dirty
// simulation of another variant and geometry — serially and on four
// workers (under -race in tier2 and obs). The references run first on
// a drained recycler and release nothing, so they never see a recycled
// array; the suite must then actually recycle.
func TestRecycleEquivalence(t *testing.T) {
	accesses := 20000
	if testing.Short() {
		accesses = 4000
	}
	cases := RecycleEquivalenceCases(1, accesses)
	recycle.Drain()
	before := recycle.ReadStats().Hits
	refs, err := RecycleReferences(cases)
	if err != nil {
		t.Fatal(err)
	}
	if hits := recycle.ReadStats().Hits - before; hits != 0 {
		t.Fatalf("fresh references drew %d recycled arrays", hits)
	}
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			h0 := recycle.ReadStats().Hits
			if err := RecycleEquivalenceSuite(cases, refs, jobs); err != nil {
				t.Error(err)
			}
			if hits := recycle.ReadStats().Hits - h0; hits < uint64(len(cases)) {
				t.Errorf("%d cases drew only %d recycled arrays; the matrix does not exercise recycling", len(cases), hits)
			}
		})
	}
}

// TestRecycleEquivalenceCatchesDivergence checks the harness can fail:
// a perturbed reference must be reported.
func TestRecycleEquivalenceCatchesDivergence(t *testing.T) {
	cases := RecycleEquivalenceCases(1, 2000)
	if len(cases) != 50 {
		t.Fatalf("matrix has %d cells, want 10 kernels x 5 configurations", len(cases))
	}
	refs, err := RecycleReferences(cases[:1])
	if err != nil {
		t.Fatal(err)
	}
	bad := *refs[0]
	bad.DEnergy.DataRead *= 1.0001
	err = RecycleEquivalenceSuite(cases[:1], refs[:1], 1)
	if err != nil {
		t.Fatalf("unperturbed cell failed: %v", err)
	}
	err = RecycleEquivalenceSuite(cases[:1], []*core.Report{&bad}, 1)
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("perturbed reference not caught: %v", err)
	}
}
