package check

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Batch-vs-serial differential: core.CNTCache.AccessBatch routes eligible
// configurations onto a fused fast path (core's accessHotOne), and the
// contract is that batching is an implementation detail — a batched
// replay must be indistinguishable from calling Access once per record,
// for every configuration, at every batch size. These checkers state
// that contract as an executable property: same final core.Report
// (reflect.DeepEqual — counters, energies, fault accounting, all of it)
// and byte-identical serialized event streams when a trace sink is
// attached.

// BatchEquivalence replays inst through two identical simulations — one
// per-access via Sim.Step, one in blocks of batch accesses via
// Sim.StepBatch — and returns an error unless the two runs are
// indistinguishable. withEvents attaches a JSONL trace sink to both L1s
// of each run and also demands byte-identical event streams (which
// forces the generic batch loop; leave it false to cover the fused fast
// path).
func BatchEquivalence(inst *workload.Instance, cfg core.SimConfig, batch int, withEvents bool) error {
	if batch <= 0 {
		return fmt.Errorf("check: batch size must be positive, got %d", batch)
	}
	serialRep, serialEvents, err := batchReplay(inst, cfg, 0, withEvents)
	if err != nil {
		return fmt.Errorf("check: %s serial replay: %w", inst.Name, err)
	}
	batchRep, batchEvents, err := batchReplay(inst, cfg, batch, withEvents)
	if err != nil {
		return fmt.Errorf("check: %s batched replay (batch=%d): %w", inst.Name, batch, err)
	}
	if !reflect.DeepEqual(serialRep, batchRep) {
		return fmt.Errorf("check: %s: batch=%d report diverges from per-access replay:\n--- serial ---\n%+v\n--- batched ---\n%+v",
			inst.Name, batch, serialRep, batchRep)
	}
	if !bytes.Equal(serialEvents, batchEvents) {
		return fmt.Errorf("check: %s: batch=%d event stream diverges from per-access replay (%d vs %d bytes)",
			inst.Name, batch, len(serialEvents), len(batchEvents))
	}
	return nil
}

// batchReplay runs one simulation over inst. batch == 0 replays strictly
// per access through Sim.Step; batch > 0 replays through Sim.StepBatch in
// blocks of that size, so the final partial block exercises the
// non-multiple tail. When withEvents is set both L1s share one JSONL
// sink and the serialized stream is returned alongside the report.
func batchReplay(inst *workload.Instance, cfg core.SimConfig, batch int, withEvents bool) (*core.Report, []byte, error) {
	m := mem.New()
	inst.Preload(m)
	var buf bytes.Buffer
	var sink *obs.JSONLSink
	if withEvents {
		sink = obs.NewJSONLSink(&buf)
		cfg.DOpts.Trace = sink
		cfg.IOpts.Trace = sink
	}
	sim, err := core.NewSim(cfg, m)
	if err != nil {
		return nil, nil, err
	}
	defer sim.Release()
	accs := inst.Accesses
	if batch == 0 {
		for i := range accs {
			if err := sim.Step(accs[i]); err != nil {
				return nil, nil, fmt.Errorf("access %d: %w", i, err)
			}
		}
	} else {
		for base := 0; base < len(accs); base += batch {
			end := base + batch
			if end > len(accs) {
				end = len(accs)
			}
			if err := sim.RunBatch(inst.Name, base, accs[base:end]); err != nil {
				return nil, nil, err
			}
		}
	}
	rep := sim.Finish(inst.Name, cfg.DOpts.Spec.String())
	if sink != nil {
		if err := sink.Flush(); err != nil {
			return nil, nil, err
		}
	}
	return rep, buf.Bytes(), nil
}

// RandomInstance builds a synthetic stream exercising every access shape
// the batch path must preserve: reads, writes and fetches, sizes from a
// single byte up to a full line, and line-crossing spans that force the
// fused fast path to fall back to the generic split machinery. The data
// image and write payloads mix dense and sparse words so the adaptive
// predictor actually flips directions during the run.
func RandomInstance(seed int64, n int) *workload.Instance {
	rng := rand.New(rand.NewSource(seed))
	const base = 0x10000
	const footprint = 1 << 15 // 32 KiB: misses and evictions, not just hits
	img := make([]byte, 4096)
	for i := range img {
		if rng.Intn(4) == 0 {
			img[i] = byte(rng.Intn(256)) // dense patches in a mostly-zero image
		}
	}
	inst := &workload.Instance{
		Name: fmt.Sprintf("random-%d", seed),
		Init: []workload.Region{{Addr: base, Data: img}},
	}
	sizes := []int{1, 2, 4, 8, 16, 32, 64}
	for i := 0; i < n; i++ {
		size := sizes[rng.Intn(len(sizes))]
		addr := base + uint64(rng.Intn(footprint))
		if rng.Intn(8) != 0 {
			addr &^= uint64(size - 1) // mostly aligned, occasionally crossing a line
		}
		switch rng.Intn(4) {
		case 0: // fetch: routed to the I-cache by StepBatch
			inst.Accesses = append(inst.Accesses, trace.Access{Op: trace.Fetch, Addr: addr, Size: size})
		case 1: // write with a mixed-density payload
			data := make([]byte, size)
			switch rng.Intn(3) {
			case 0: // sparse
				data[rng.Intn(size)] = byte(rng.Intn(256))
			case 1: // dense
				for j := range data {
					data[j] = 0xFF
				}
				data[rng.Intn(size)] = byte(rng.Intn(256))
			default:
				rng.Read(data)
			}
			inst.Accesses = append(inst.Accesses, trace.Access{Op: trace.Write, Addr: addr, Size: size, Data: data})
		default:
			inst.Accesses = append(inst.Accesses, trace.Access{Op: trace.Read, Addr: addr, Size: size})
		}
	}
	return inst
}

// BatchCase is one cell of the equivalence matrix.
type BatchCase struct {
	// Name identifies the cell in failure messages.
	Name string
	// Inst is the workload replayed both ways.
	Inst *workload.Instance
	// Cfg is the simulation configuration (shared by both replays).
	Cfg core.SimConfig
	// Batch is the block size of the batched replay.
	Batch int
	// Events attaches trace sinks and compares the serialized streams.
	Events bool
}

// BatchEquivalenceCases enumerates the matrix the differential suite
// covers: random streams and a real kernel, baseline and adaptive
// variants, batch sizes from one through larger-than-the-trace
// (including sizes that leave a partial tail block), each with and
// without fault injection and telemetry.
func BatchEquivalenceCases(seed int64, accesses int) []BatchCase {
	kernel := workload.List(seed)
	if n := 3 * accesses; n < len(kernel.Accesses) {
		// A prefix of the real kernel keeps its access character (pointer
		// chasing, sparse integer payloads) at a suite-friendly length.
		kernel = &workload.Instance{
			Name:     kernel.Name + "-prefix",
			Init:     kernel.Init,
			Accesses: kernel.Accesses[:n],
		}
	}
	insts := []*workload.Instance{
		RandomInstance(seed, accesses),
		RandomInstance(seed+1, accesses),
		kernel,
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"baseline", core.BaselineOptions()},
		{"cnt-cache", core.DefaultOptions()},
	}
	fc := fault.AtRate(1e-3, seed)
	fc.EnergySpread = 0.1
	toggles := []struct {
		name   string
		fault  *fault.Config
		events bool
	}{
		{"plain", nil, false}, // fused fast path vs per-access
		{"faults", &fc, false},
		{"events", nil, true},
		{"faults+events", &fc, true},
	}
	var cases []BatchCase
	for _, inst := range insts {
		for _, v := range variants {
			for _, batch := range []int{1, 3, 64, 997, accesses + 1} {
				for _, tog := range toggles {
					cfg := core.DefaultSimConfig()
					cfg.DOpts, cfg.IOpts = v.opts, v.opts
					cfg.DOpts.Fault = tog.fault
					cfg.IOpts.Fault = tog.fault
					cases = append(cases, BatchCase{
						Name:   fmt.Sprintf("%s/%s/batch=%d/%s", inst.Name, v.name, batch, tog.name),
						Inst:   inst,
						Cfg:    cfg,
						Batch:  batch,
						Events: tog.events,
					})
				}
			}
		}
	}
	return cases
}

// BatchEquivalenceSuite runs the full equivalence matrix with jobs
// concurrent workers. Cases are independent simulations, so the worker
// count must never change the outcome — running the suite under the race
// detector at several job counts is the concurrency half of the batch
// path's correctness argument (instances are shared read-only across
// workers, mirroring the experiment engine). The error for the
// lowest-indexed failing case is returned regardless of scheduling.
func BatchEquivalenceSuite(cases []BatchCase, jobs int) error {
	if jobs <= 0 {
		return fmt.Errorf("check: jobs must be positive, got %d", jobs)
	}
	errs := make([]error, len(cases))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i := range cases {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			c := &cases[i]
			if err := BatchEquivalence(c.Inst, c.Cfg, c.Batch, c.Events); err != nil {
				errs[i] = fmt.Errorf("%s: %w", c.Name, err)
			}
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
