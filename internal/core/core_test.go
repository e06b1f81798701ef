package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/cache"
	"repro/internal/cnfet"
	"repro/internal/encoding"
	"repro/internal/mem"
	"repro/internal/recycle"
	"repro/internal/sram"
	"repro/internal/trace"
	"repro/internal/workload"
)

func tinyCacheCfg() cache.Config {
	return cache.Config{
		Name:     "L1D",
		Geometry: sram.Geometry{Sets: 16, Ways: 2, LineBytes: 64},
	}
}

func newCNT(t *testing.T, opts Options) (*CNTCache, *mem.Memory) {
	t.Helper()
	m := mem.New()
	c, err := New(tinyCacheCfg(), cache.MemBackend{M: m}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

func TestNewValidation(t *testing.T) {
	m := mem.New()
	bad := DefaultOptions()
	bad.Spec.Partitions = 3
	if _, err := New(tinyCacheCfg(), cache.MemBackend{M: m}, bad); err == nil {
		t.Error("indivisible partitions should fail")
	}
	bad = DefaultOptions()
	bad.Window = 0
	if _, err := New(tinyCacheCfg(), cache.MemBackend{M: m}, bad); err == nil {
		t.Error("adaptive without window should fail")
	}
	bad = DefaultOptions()
	bad.Table = cnfet.EnergyTable{}
	if _, err := New(tinyCacheCfg(), cache.MemBackend{M: m}, bad); err == nil {
		t.Error("invalid table should fail")
	}
	bad = DefaultOptions()
	bad.IdleSlots = -1
	if _, err := New(tinyCacheCfg(), cache.MemBackend{M: m}, bad); err == nil {
		t.Error("negative idle slots should fail")
	}
}

func TestMetaBitsPerVariant(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want int
	}{
		{"baseline", BaselineOptions(), 0},
		{"adaptive k8 w15", DefaultOptions(), 16}, // 2*4 + 8
		{"static k8", Options{Spec: encoding.Spec{Kind: encoding.KindStaticWrite, Partitions: 8},
			Table: cnfet.MustTable(cnfet.CNFET32())}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newCNT(t, tc.opts)
			if got := c.MetaBitsPerLine(); got != tc.want {
				t.Errorf("meta bits = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestBaselineEnergyHandComputed(t *testing.T) {
	// One read miss of an all-zeros line on the baseline cache: lookup +
	// fill write (all zeros) + line read (all zeros). No meta, no
	// encoder, no switch.
	opts := BaselineOptions()
	c, _ := newCNT(t, opts)
	if err := c.Access(trace.Access{Op: trace.Read, Addr: 0, Size: 8}); err != nil {
		t.Fatal(err)
	}
	eb := c.Energy()
	arr := c.arr
	wantWrite := arr.WriteEnergy(0, 64)
	wantRead := arr.ReadEnergy(0, 64)
	wantPerif := arr.LookupEnergy()
	if math.Abs(eb.DataWrite-wantWrite) > 1e-6 {
		t.Errorf("DataWrite = %g, want %g", eb.DataWrite, wantWrite)
	}
	if math.Abs(eb.DataRead-wantRead) > 1e-6 {
		t.Errorf("DataRead = %g, want %g", eb.DataRead, wantRead)
	}
	if math.Abs(eb.Periphery-wantPerif) > 1e-6 {
		t.Errorf("Periphery = %g, want %g", eb.Periphery, wantPerif)
	}
	if eb.MetaRead != 0 || eb.MetaWrite != 0 || eb.Encoder != 0 || eb.Switch != 0 {
		t.Errorf("baseline charged overhead: %+v", eb)
	}
}

func TestWordGranularityChargesLess(t *testing.T) {
	run := func(g Granularity) float64 {
		opts := BaselineOptions()
		opts.Granularity = g
		c, _ := newCNT(t, opts)
		// Hit path: fill once then read one word many times.
		c.Access(trace.Access{Op: trace.Read, Addr: 0, Size: 8})
		for i := 0; i < 100; i++ {
			c.Access(trace.Access{Op: trace.Read, Addr: 0, Size: 8})
		}
		return c.Energy().Total()
	}
	if lw, ww := run(GranularityLine), run(GranularityWord); ww >= lw {
		t.Errorf("word granularity %.1f should cost less than line %.1f", ww, lw)
	}
}

func TestStoredOnesMatchesEncoding(t *testing.T) {
	c, _ := newCNT(t, DefaultOptions())
	rng := rand.New(rand.NewSource(9))
	logical := make([]byte, 64)
	for trial := 0; trial < 200; trial++ {
		rng.Read(logical)
		mask := rng.Uint64() & 0xFF
		stored := append([]byte(nil), logical...)
		encoding.Apply(stored, 8, mask)
		if got, want := c.storedOnes(logical, mask, 0, 64), bitutil.Ones(stored); got != want {
			t.Fatalf("storedOnes full line = %d, want %d", got, want)
		}
		off := rng.Intn(8) * 8
		if got, want := c.storedOnes(logical, mask, off, 8), bitutil.Ones(stored[off:off+8]); got != want {
			t.Fatalf("storedOnes(%d,8) = %d, want %d", off, got, want)
		}
		// Unaligned span crossing partitions.
		off = rng.Intn(48)
		size := 1 + rng.Intn(16)
		if got, want := c.storedOnes(logical, mask, off, size), bitutil.Ones(stored[off:off+size]); got != want {
			t.Fatalf("storedOnes(%d,%d) = %d, want %d", off, size, got, want)
		}
	}
}

// TestAdaptiveConvergesOnReadHeavyZeros is the mechanism check: a zero
// line read repeatedly must get inverted (stored as ones) and the reads
// must become cheap.
func TestAdaptiveConvergesOnReadHeavyZeros(t *testing.T) {
	opts := DefaultOptions()
	opts.FillPolicy = FillNeutral
	c, _ := newCNT(t, opts)
	for i := 0; i < 200; i++ {
		if err := c.Access(trace.Access{Op: trace.Read, Addr: 0, Size: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Switches() == 0 {
		t.Fatal("predictor never switched the all-zeros read-heavy line")
	}
	st := c.state[0]
	if st.mask != 0xFF {
		t.Errorf("mask = %#x, want all partitions inverted", st.mask)
	}
	if c.Windows() == 0 {
		t.Error("no prediction windows completed")
	}
}

func TestAdaptiveBeatsBaselineOnSkewedReads(t *testing.T) {
	// Read-heavy zero-heavy stream: CNT-Cache must save a solid fraction.
	mk := func(opts Options) float64 {
		c, m := newCNT(t, opts)
		m.Write(0, make([]byte, 4096)) // zeros (explicit for clarity)
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(16)) * 64
			if rng.Intn(10) == 0 {
				c.Access(trace.Access{Op: trace.Write, Addr: addr, Size: 8, Data: make([]byte, 8)})
			} else {
				c.Access(trace.Access{Op: trace.Read, Addr: addr, Size: 8})
			}
		}
		c.DrainAll()
		return c.Energy().Total()
	}
	base := mk(BaselineOptions())
	cnt := mk(DefaultOptions())
	saving := (base - cnt) / base
	if saving < 0.3 {
		t.Errorf("saving on ideal workload = %.1f%%, want > 30%%", saving*100)
	}
}

func TestWriteGreedyMinimizesStoredOnesOnWrites(t *testing.T) {
	opts := Options{
		Spec:  encoding.Spec{Kind: encoding.KindWriteGreedy, Partitions: 8},
		Table: cnfet.MustTable(cnfet.CNFET32()),
	}
	c, _ := newCNT(t, opts)
	ones := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if err := c.Access(trace.Access{Op: trace.Write, Addr: 0, Size: 8, Data: ones}); err != nil {
		t.Fatal(err)
	}
	// Partition 0 holds all-ones logically; greedy must store it inverted.
	if st := c.state[0]; st.mask&1 == 0 {
		t.Errorf("greedy did not invert the all-ones partition: mask=%#x", st.mask)
	}
}

func TestStaticVariantsSetFillMask(t *testing.T) {
	m := mem.New()
	oneLine := make([]byte, 64)
	for i := range oneLine {
		oneLine[i] = 0xFF
	}
	m.Write(0, oneLine)

	run := func(kind encoding.Kind) uint64 {
		opts := Options{Spec: encoding.Spec{Kind: kind, Partitions: 8},
			Table: cnfet.MustTable(cnfet.CNFET32())}
		c, err := New(tinyCacheCfg(), cache.MemBackend{M: m}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Access(trace.Access{Op: trace.Read, Addr: 0, Size: 8}); err != nil {
			t.Fatal(err)
		}
		return c.state[0].mask
	}
	if mask := run(encoding.KindStaticWrite); mask != 0xFF {
		t.Errorf("static-write fill mask = %#x, want all inverted (minimize ones)", mask)
	}
	if mask := run(encoding.KindStaticRead); mask != 0 {
		t.Errorf("static-read fill mask = %#x, want none inverted (keep ones)", mask)
	}
}

func TestFIFONeverDrainsWithZeroIdleSlots(t *testing.T) {
	opts := DefaultOptions()
	opts.IdleSlots = 0
	opts.FillPolicy = FillNeutral
	opts.FIFODepth = 4
	c, _ := newCNT(t, opts)
	for i := 0; i < 500; i++ {
		addr := uint64(i%8) * 64
		c.Access(trace.Access{Op: trace.Read, Addr: addr, Size: 64})
	}
	if c.Switches() != 0 {
		t.Error("switches applied despite zero idle slots")
	}
	if c.FIFOStats().Enqueued == 0 {
		t.Error("no updates enqueued; expected pending re-encodes")
	}
	c.DrainAll()
	if c.Switches() == 0 {
		t.Error("DrainAll should apply pending updates")
	}
}

func TestEvictionInvalidatesPendingUpdate(t *testing.T) {
	opts := DefaultOptions()
	opts.IdleSlots = 0
	opts.FillPolicy = FillNeutral
	c, _ := newCNT(t, opts)
	// Queue an update for line 0 (set 0).
	for i := 0; i < 20; i++ {
		c.Access(trace.Access{Op: trace.Read, Addr: 0, Size: 64})
	}
	if c.FIFOStats().Enqueued == 0 {
		t.Fatal("expected a pending update")
	}
	// Evict set 0 with two new lines (2 ways).
	c.Access(trace.Access{Op: trace.Read, Addr: 16 * 64, Size: 64})
	c.Access(trace.Access{Op: trace.Read, Addr: 32 * 64, Size: 64})
	c.Access(trace.Access{Op: trace.Read, Addr: 48 * 64, Size: 64})
	c.DrainAll()
	// The stale update must not have been applied to the new resident.
	if c.staleDrops == 0 {
		t.Error("expected the pending update to be invalidated or skipped")
	}
}

func TestEnergyMonotonicallyAccumulates(t *testing.T) {
	c, _ := newCNT(t, DefaultOptions())
	last := 0.0
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a := trace.Access{Op: trace.Read, Addr: uint64(rng.Intn(64)) * 64, Size: 8}
		if rng.Intn(3) == 0 {
			data := make([]byte, 8)
			rng.Read(data)
			a = trace.Access{Op: trace.Write, Addr: a.Addr, Size: 8, Data: data}
		}
		if err := c.Access(a); err != nil {
			t.Fatal(err)
		}
		tot := c.Energy().Total()
		if tot < last {
			t.Fatalf("energy decreased: %g -> %g", last, tot)
		}
		last = tot
	}
	eb := c.Energy()
	for name, v := range map[string]float64{
		"DataRead": eb.DataRead, "DataWrite": eb.DataWrite,
		"MetaRead": eb.MetaRead, "MetaWrite": eb.MetaWrite,
		"Encoder": eb.Encoder, "Switch": eb.Switch, "Periphery": eb.Periphery,
	} {
		if v < 0 {
			t.Errorf("%s negative: %g", name, v)
		}
	}
}

func TestRunInstanceDeterministic(t *testing.T) {
	inst := workload.Histogram(7)
	cfg := DefaultSimConfig()
	r1, err := RunInstance(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunInstance(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.DEnergy != r2.DEnergy || r1.DStats != r2.DStats {
		t.Error("identical runs diverged")
	}
}

func TestCompareVariantsOnKernel(t *testing.T) {
	inst := workload.Histogram(1)
	cmp, err := Compare(inst, cache.DefaultHierarchyConfig(), ComparisonVariants(DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Reports) != 6 {
		t.Fatalf("got %d reports", len(cmp.Reports))
	}
	base := cmp.BaselineTotal()
	if base <= 0 {
		t.Fatal("baseline energy not positive")
	}
	saving := cmp.SavingOf("cnt-cache")
	if saving <= 0 {
		t.Errorf("cnt-cache saving = %.2f%%, want positive on hist", saving*100)
	}
	// Architectural behaviour must be identical across variants.
	for i, rep := range cmp.Reports {
		if rep.DStats != cmp.Reports[0].DStats {
			t.Errorf("variant %s changed architectural stats", cmp.Names[i])
		}
	}
}

func TestFetchRoutesToICache(t *testing.T) {
	m := mem.New()
	sim, err := NewSim(DefaultSimConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(trace.Access{Op: trace.Fetch, Addr: 0x1000, Size: 4}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(trace.Access{Op: trace.Read, Addr: 0x2000, Size: 4}); err != nil {
		t.Fatal(err)
	}
	rep := sim.Finish("x", "y")
	if rep.IStats.Accesses != 1 || rep.DStats.Accesses != 1 {
		t.Errorf("routing: I=%d D=%d", rep.IStats.Accesses, rep.DStats.Accesses)
	}
}

func TestGranularityAndSwitchStrings(t *testing.T) {
	if GranularityLine.String() != "line" || GranularityWord.String() != "word" {
		t.Error("granularity strings")
	}
	if SwitchFlippedOnly.String() != "flipped-only" || SwitchFullLine.String() != "full-line" {
		t.Error("switch cost strings")
	}
	if FillWriteOptimal.String() != "write-optimal" || FillNeutral.String() != "neutral" {
		t.Error("fill policy strings")
	}
}

func TestSimRejectsNilMemory(t *testing.T) {
	if _, err := NewSim(DefaultSimConfig(), nil); err == nil {
		t.Error("nil memory should fail")
	}
}

// TestSimReleaseLifecycle pins the end of a Sim's life: Release leaves
// the returned report intact, Step and StepBatch fail with ErrReleased
// instead of touching arrays another simulation may now own, Finish
// panics, and a second Release does nothing.
func TestSimReleaseLifecycle(t *testing.T) {
	inst := workload.Histogram(1)
	m := mem.New()
	inst.Preload(m)
	sim, err := NewSim(DefaultSimConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	want := *rep
	want.Levels = append([]LevelReport(nil), rep.Levels...)
	sim.Release()
	if !reflect.DeepEqual(*rep, want) {
		t.Error("Release changed a report already returned")
	}
	a := trace.Access{Op: trace.Read, Addr: 0x1000, Size: 8}
	if err := sim.Step(a); !errors.Is(err, ErrReleased) {
		t.Errorf("Step after Release = %v, want ErrReleased", err)
	}
	if n, err := sim.StepBatch([]trace.Access{a, a}); n != 0 || !errors.Is(err, ErrReleased) {
		t.Errorf("StepBatch after Release = (%d, %v), want (0, ErrReleased)", n, err)
	}
	before := recycle.ReadStats()
	sim.Release()
	if after := recycle.ReadStats(); after != before {
		t.Errorf("second Release touched the recycler: %+v -> %+v", before, after)
	}
	defer func() {
		if recover() == nil {
			t.Error("Finish after Release did not panic")
		}
	}()
	sim.Finish(inst.Name, "x")
}

func TestPolicyNameFlowsThrough(t *testing.T) {
	for _, name := range []string{"", "window", "conf2", "conf3", "ewma"} {
		opts := DefaultOptions()
		opts.PolicyName = name
		c, _ := newCNT(t, opts)
		// Extra policy state must be charged as metadata.
		wantExtra := map[string]int{"": 0, "window": 0, "conf2": 2, "conf3": 2, "ewma": 4}[name]
		if got := c.MetaBitsPerLine(); got != 16+wantExtra {
			t.Errorf("%s: meta bits = %d, want %d", name, got, 16+wantExtra)
		}
	}
	bad := DefaultOptions()
	bad.PolicyName = "psychic"
	m := mem.New()
	if _, err := New(tinyCacheCfg(), cache.MemBackend{M: m}, bad); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestEWMAPolicyStillConverges(t *testing.T) {
	opts := DefaultOptions()
	opts.PolicyName = "ewma"
	opts.FillPolicy = FillNeutral
	c, _ := newCNT(t, opts)
	for i := 0; i < 400; i++ {
		c.Access(trace.Access{Op: trace.Read, Addr: 0, Size: 64})
	}
	c.DrainAll()
	if c.state[0].mask != 0xFF {
		t.Errorf("ewma policy failed to invert the zero read line: mask=%#x", c.state[0].mask)
	}
}
