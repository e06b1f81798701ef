package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// newHotCache builds a CNTCache over a preloaded memory image and warms
// the line at hotAddr so subsequent accesses are steady-state hits.
func newHotCache(tb testing.TB, opts Options) *CNTCache {
	tb.Helper()
	m := mem.New()
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i * 37)
	}
	m.Write(0x1000, buf)
	cfg := cache.DefaultHierarchyConfig().L1D
	c, err := New(cfg, cache.MemBackend{M: m}, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Access(trace.Access{Op: trace.Read, Addr: hotAddr, Size: 8}); err != nil {
		tb.Fatal(err)
	}
	return c
}

const hotAddr = 0x1040

// TestAccessHitAllocs pins the steady-state contract: a single-line hit
// with no fill performs zero heap allocations. This is the per-access
// fast path every sweep spends nearly all of its time in.
func TestAccessHitAllocs(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		name string
		a    trace.Access
	}{
		{"read", trace.Access{Op: trace.Read, Addr: hotAddr, Size: 8}},
		{"write", trace.Access{Op: trace.Write, Addr: hotAddr, Size: 8, Data: payload}},
	} {
		for _, variant := range []struct {
			name string
			opts Options
		}{
			{"baseline", BaselineOptions()},
			{"adaptive", DefaultOptions()},
		} {
			t.Run(tc.name+"/"+variant.name, func(t *testing.T) {
				c := newHotCache(t, variant.opts)
				a := tc.a
				if n := testing.AllocsPerRun(200, func() {
					if err := c.Access(a); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Errorf("steady-state Access allocates %.1f objects per op, want 0", n)
				}
			})
		}
	}
}

// TestAccessHitAllocsWithMetrics pins the enabled-metrics overhead
// guarantee: with a live registry (and no event sink) the steady-state
// hit path still performs zero heap allocations — metric updates are
// atomic operations on handles pre-registered at construction.
func TestAccessHitAllocsWithMetrics(t *testing.T) {
	opts := DefaultOptions()
	opts.Metrics = obs.NewRegistry()
	c := newHotCache(t, opts)
	a := trace.Access{Op: trace.Read, Addr: hotAddr, Size: 8}
	if n := testing.AllocsPerRun(200, func() {
		if err := c.Access(a); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("metrics-enabled Access allocates %.1f objects per op, want 0", n)
	}
	if got := opts.Metrics.Counter("l1d_accesses_total").Value(); got == 0 {
		t.Error("registry saw no accesses; instrumentation not wired")
	}
}

// TestStoredOnesAllocs keeps the inner energy-accounting helper off the
// heap: it runs under every read, write, eviction, and drained re-encode.
func TestStoredOnesAllocs(t *testing.T) {
	c := newHotCache(t, DefaultOptions())
	line := make([]byte, c.lineBytes)
	for i := range line {
		line[i] = byte(i)
	}
	if n := testing.AllocsPerRun(200, func() {
		if c.storedOnes(line, 0b1010, 0, len(line)) < 0 {
			t.Fatal("negative ones")
		}
	}); n != 0 {
		t.Errorf("storedOnes allocates %.1f objects per op, want 0", n)
	}
}

// batchBlock builds a steady-state block of single-line hits against the
// warmed line: a read/write mix for the D-cache plus fetches when
// withFetches is set (Sim.StepBatch routes those to the I-cache).
func batchBlock(n int, withFetches bool) []trace.Access {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	accs := make([]trace.Access, n)
	for i := range accs {
		switch {
		case withFetches && i%3 == 2:
			accs[i] = trace.Access{Op: trace.Fetch, Addr: hotAddr + 8, Size: 8}
		case i%3 == 1:
			accs[i] = trace.Access{Op: trace.Write, Addr: hotAddr, Size: 8, Data: payload}
		default:
			accs[i] = trace.Access{Op: trace.Read, Addr: hotAddr, Size: 8}
		}
	}
	return accs
}

// TestAccessBatchAllocs pins the batched replay path at zero
// steady-state heap allocations: one AccessBatch call over a block of
// single-line hits — the shape every sweep's inner loop now has — must
// not touch the heap, for the baseline and the adaptive variant alike
// (the latter exercises window rolls, FIFO pushes and drains inside the
// block).
func TestAccessBatchAllocs(t *testing.T) {
	for _, variant := range []struct {
		name string
		opts Options
	}{
		{"baseline", BaselineOptions()},
		{"adaptive", DefaultOptions()},
	} {
		t.Run(variant.name, func(t *testing.T) {
			c := newHotCache(t, variant.opts)
			accs := batchBlock(64, false)
			if _, err := c.AccessBatch(accs); err != nil {
				t.Fatal(err) // warm the block once
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, err := c.AccessBatch(accs); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("steady-state AccessBatch allocates %.2f objects per call, want 0", n)
			}
		})
	}
}

// TestStepBatchAllocs extends the zero-alloc pin one layer up: the
// simulation's batch router, including fetch traffic bound for the
// I-cache, stays off the heap in steady state.
func TestStepBatchAllocs(t *testing.T) {
	m := mem.New()
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i * 37)
	}
	m.Write(0x1000, buf)
	sim, err := NewSim(DefaultSimConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	accs := batchBlock(64, true)
	if _, err := sim.StepBatch(accs); err != nil {
		t.Fatal(err) // warm both L1s
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := sim.StepBatch(accs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state StepBatch allocates %.2f objects per call, want 0", n)
	}
}

// BenchmarkAccessHit measures the steady-state hot path (single-line
// read hit, no fill) of the adaptive cache. Run with -benchmem; the
// allocs/op column must stay at 0.
func BenchmarkAccessHit(b *testing.B) {
	c := newHotCache(b, DefaultOptions())
	a := trace.Access{Op: trace.Read, Addr: hotAddr, Size: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Access(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessWriteHit measures the write flavor of the same path,
// which additionally re-counts stored ones over the written span.
func BenchmarkAccessWriteHit(b *testing.B) {
	c := newHotCache(b, DefaultOptions())
	a := trace.Access{Op: trace.Write, Addr: hotAddr, Size: 8, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Access(a); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set under -race, whose instrumentation allocates on its
// own account; exact non-zero pins skip there.
var raceEnabled bool

// TestRunInstanceAllocs pins setup as well as the hot path: a warm
// RunInstance of a suite kernel — memory image, every level's build,
// replay, report and release — performs exactly this many allocations.
// The large per-level arrays all come back from the recycler, so the
// count is the handful of small objects each level is made of.
func TestRunInstanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	inst := workload.Histogram(1)
	cfg := DefaultSimConfig()
	if _, err := RunInstance(inst, cfg); err != nil {
		t.Fatal(err) // warm the recycler
	}
	const want = 58
	if n := testing.AllocsPerRun(5, func() {
		if _, err := RunInstance(inst, cfg); err != nil {
			t.Fatal(err)
		}
	}); n != want {
		t.Errorf("warm RunInstance(hist) allocates %v objects, want exactly %d", n, want)
	}
}
