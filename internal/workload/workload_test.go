package workload

import (
	"reflect"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestSuiteInstancesValidate(t *testing.T) {
	for _, b := range Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			inst := b.Build(1)
			if inst.Name != b.Name {
				t.Errorf("instance name %q != builder name %q", inst.Name, b.Name)
			}
			if err := inst.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(inst.Accesses) < 1000 {
				t.Errorf("only %d accesses; kernels should be non-trivial", len(inst.Accesses))
			}
			if len(inst.Accesses) > 2_000_000 {
				t.Errorf("%d accesses; kernels should stay simulable", len(inst.Accesses))
			}
		})
	}
}

func TestSuiteDeterministicInSeed(t *testing.T) {
	for _, b := range Suite() {
		a1 := b.Build(42)
		a2 := b.Build(42)
		if !reflect.DeepEqual(a1.Accesses, a2.Accesses) || !reflect.DeepEqual(a1.Init, a2.Init) {
			t.Errorf("%s: same seed produced different instances", b.Name)
		}
	}
}

func TestSuiteSeedChangesData(t *testing.T) {
	// Different seeds must give different data (except stack, whose image
	// is empty, and whose values are still seeded).
	a1 := MatMul(1)
	a2 := MatMul(2)
	if reflect.DeepEqual(a1.Init, a2.Init) {
		t.Error("mm: different seeds gave identical images")
	}
}

func TestOpMixesMatchKernelCharacter(t *testing.T) {
	frac := func(in *Instance) float64 {
		r, w, _ := in.Counts()
		return float64(w) / float64(r+w)
	}
	if f := frac(MatMul(1)); f > 0.05 {
		t.Errorf("mm write fraction %.3f, want read-dominated < 0.05", f)
	}
	if f := frac(FIR(1)); f > 0.05 {
		t.Errorf("fir write fraction %.3f, want < 0.05", f)
	}
	if f := frac(Stream(1)); f < 0.25 || f > 0.45 {
		t.Errorf("stream write fraction %.3f, want ~1/3", f)
	}
	if f := frac(Stack(1)); f < 0.4 || f > 0.6 {
		t.Errorf("stack write fraction %.3f, want ~1/2", f)
	}
	if f := frac(Histogram(1)); f < 0.25 || f > 0.4 {
		t.Errorf("hist write fraction %.3f, want ~1/3", f)
	}
}

func TestIntegerKernelsAreZeroHeavy(t *testing.T) {
	density := func(in *Instance) float64 {
		ones, total := 0, 0
		for _, r := range in.Init {
			ones += bitutil.Ones(r.Data)
			total += len(r.Data) * 8
		}
		for _, a := range in.Accesses {
			if a.Op == trace.Write {
				ones += bitutil.Ones(a.Data)
				total += len(a.Data) * 8
			}
		}
		if total == 0 {
			return 0
		}
		return float64(ones) / float64(total)
	}
	for _, tc := range []struct {
		inst   *Instance
		lo, hi float64
	}{
		{MatMul(1), 0.03, 0.30},    // small ints: zero-heavy
		{BFS(1), 0.01, 0.30},       // indices: very zero-heavy
		{Histogram(1), 0.01, 0.25}, // counters: extremely zero-heavy
		{Stream(1), 0.30, 0.60},    // FP patterns: dense
		{HashJoin(1), 0.30, 0.60},  // hashed keys: dense
	} {
		got := density(tc.inst)
		if got < tc.lo || got > tc.hi {
			t.Errorf("%s: one-density %.3f outside [%.2f,%.2f]", tc.inst.Name, got, tc.lo, tc.hi)
		}
	}
}

func TestPreloadWritesImage(t *testing.T) {
	inst := MatMul(1)
	m := mem.New()
	inst.Preload(m)
	buf := make([]byte, 4)
	m.Read(inst.Init[0].Addr, buf)
	if !bitutil.Equal(buf, inst.Init[0].Data[:4]) {
		t.Error("Preload did not place region data")
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		b, err := ByName(n)
		if err != nil || b.Name != n {
			t.Errorf("ByName(%q): %v", n, err)
		}
		if b.Description == "" {
			t.Errorf("%s: empty description", n)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should fail")
	}
	if len(Names()) != 10 {
		t.Errorf("suite has %d kernels, want 10", len(Names()))
	}
}

func TestBFSVisitsEveryReachableOnce(t *testing.T) {
	inst := BFS(3)
	// Each visited-map write of 1 byte marks one vertex; no vertex may be
	// marked twice.
	seen := map[uint64]bool{}
	for _, a := range inst.Accesses {
		if a.Op == trace.Write && a.Size == 1 {
			if seen[a.Addr] {
				t.Fatalf("vertex at %#x visited twice", a.Addr)
			}
			seen[a.Addr] = true
		}
	}
	if len(seen) < 1000 {
		t.Errorf("only %d vertices visited; graph should be mostly connected", len(seen))
	}
}

func TestMixConfigValidate(t *testing.T) {
	good := MixConfig{ReadFraction: 0.5, OneDensity: 0.5, Accesses: 100, FootprintBytes: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []MixConfig{
		{ReadFraction: -0.1, OneDensity: 0.5, Accesses: 100, FootprintBytes: 4096},
		{ReadFraction: 1.1, OneDensity: 0.5, Accesses: 100, FootprintBytes: 4096},
		{ReadFraction: 0.5, OneDensity: 2, Accesses: 100, FootprintBytes: 4096},
		{ReadFraction: 0.5, OneDensity: 0.5, Accesses: 0, FootprintBytes: 4096},
		{ReadFraction: 0.5, OneDensity: 0.5, Accesses: 100, FootprintBytes: 8},
		{ReadFraction: 0.5, OneDensity: 0.5, Accesses: 100, FootprintBytes: 4096, HotFraction: 2},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, cfg)
		}
	}
}

func TestMixRespectsReadFraction(t *testing.T) {
	for _, rf := range []float64{0.0, 0.3, 0.7, 1.0} {
		inst, err := Mix(MixConfig{ReadFraction: rf, OneDensity: 0.5, Accesses: 20000, FootprintBytes: 64 * 1024}, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, w, _ := inst.Counts()
		got := float64(r) / float64(r+w)
		if got < rf-0.02 || got > rf+0.02 {
			t.Errorf("read fraction %.3f, want %.2f±0.02", got, rf)
		}
	}
}

func TestMixRespectsOneDensity(t *testing.T) {
	for _, d := range []float64{0.1, 0.5, 0.9} {
		inst, err := Mix(MixConfig{ReadFraction: 0.5, OneDensity: d, Accesses: 20000, FootprintBytes: 64 * 1024}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ones, total := 0, 0
		for _, a := range inst.Accesses {
			if a.Op == trace.Write {
				ones += bitutil.Ones(a.Data)
				total += len(a.Data) * 8
			}
		}
		got := float64(ones) / float64(total)
		if got < d-0.02 || got > d+0.02 {
			t.Errorf("one density %.3f, want %.2f±0.02", got, d)
		}
		imgOnes := bitutil.Ones(inst.Init[0].Data)
		imgTotal := len(inst.Init[0].Data) * 8
		gotImg := float64(imgOnes) / float64(imgTotal)
		if gotImg < d-0.02 || gotImg > d+0.02 {
			t.Errorf("image density %.3f, want %.2f±0.02", gotImg, d)
		}
	}
}

func TestMixHotSkew(t *testing.T) {
	inst, err := Mix(MixConfig{
		ReadFraction: 0.5, OneDensity: 0.5, Accesses: 20000,
		FootprintBytes: 640 * 1024, HotFraction: 0.9,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hotLimit := uint64(baseA) + 64*1024
	hot := 0
	for _, a := range inst.Accesses {
		if a.Addr < hotLimit {
			hot++
		}
	}
	got := float64(hot) / float64(len(inst.Accesses))
	if got < 0.85 || got > 0.95 {
		t.Errorf("hot fraction %.3f, want ~0.9", got)
	}
}

func TestMixAccessesStayInFootprint(t *testing.T) {
	cfg := MixConfig{ReadFraction: 0.5, OneDensity: 0.5, Accesses: 5000, FootprintBytes: 4096}
	inst, err := Mix(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range inst.Accesses {
		if a.Addr < baseA || a.Addr+uint64(a.Size) > baseA+4096 {
			t.Fatalf("access %#x+%d outside footprint", a.Addr, a.Size)
		}
		if a.Addr%8 != 0 {
			t.Fatalf("access %#x not word aligned", a.Addr)
		}
	}
}

func TestInstanceCountsSums(t *testing.T) {
	inst := &Instance{Accesses: []trace.Access{
		{Op: trace.Read, Size: 4},
		{Op: trace.Write, Size: 4, Data: make([]byte, 4)},
		{Op: trace.Fetch, Size: 4},
		{Op: trace.Fetch, Size: 4},
	}}
	r, w, f := inst.Counts()
	if r != 1 || w != 1 || f != 2 {
		t.Errorf("counts = %d/%d/%d", r, w, f)
	}
}

func TestValidateCatchesBadAccess(t *testing.T) {
	inst := &Instance{Name: "x", Accesses: []trace.Access{{Op: trace.Write, Size: 4}}}
	if err := inst.Validate(); err == nil {
		t.Error("invalid access should fail validation")
	}
}

// TestInstancesSizedExactly pins that every build hands out its stream
// at exact capacity: sized kernels computed their count correctly and
// scratch-built ones copied out once, so no instance carries growth
// slack into the memo caches that hold it.
func TestInstancesSizedExactly(t *testing.T) {
	for _, b := range Suite() {
		for _, seed := range []int64{1, 7} {
			inst := b.Build(seed)
			if cap(inst.Accesses) != len(inst.Accesses) {
				t.Errorf("%s seed %d: cap(Accesses) = %d, len = %d", b.Name, seed, cap(inst.Accesses), len(inst.Accesses))
			}
		}
	}
	inst, err := Mix(MixConfig{ReadFraction: 0.5, OneDensity: 0.2, Accesses: 5000, FootprintBytes: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cap(inst.Accesses) != len(inst.Accesses) {
		t.Errorf("mix: cap(Accesses) = %d, len = %d", cap(inst.Accesses), len(inst.Accesses))
	}
}

// TestScratchBuildsRepeatable rebuilds the scratch-built kernels back to
// back, so each build reuses the buffer the previous one returned: the
// streams must not depend on what the buffer held before.
func TestScratchBuildsRepeatable(t *testing.T) {
	for _, name := range []string{"bfs", "sort", "stack", "list"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := b.Build(3)
		for _, other := range Suite() {
			other.Build(5)
			if got := b.Build(3); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rebuilt after %s differs", name, other.Name)
			}
		}
	}
}
