// Package core implements CNT-Cache: a CNFET SRAM cache whose lines are
// adaptively encoded to match their access pattern (DATE 2020).
//
// A CNTCache wraps an architectural cache (package cache) with the three
// mechanisms of Figure 1 of the paper:
//
//   - the adaptive encoder (package encoding): each line is stored under a
//     per-partition inversion mask, decoded on the fly by a row of
//     inverters and 2:1 muxes;
//   - the encoding direction predictor (package predictor): per-line
//     access-history counters in the widened H&D metadata drive
//     Algorithm 1 at every window boundary;
//   - the deferred-update FIFOs (package fifo): direction switches are
//     queued and drained on idle slots so the re-encode write never
//     stalls the data path.
//
// The same machinery, configured through Options, also realizes the
// comparison baselines: the plain CNFET cache (no encoding), static
// fill-time inversion, and a bus-invert-style per-write greedy encoder.
// Dynamic energy is accounted per component (package energy) from the
// stored — i.e. encoded — bit counts, which is precisely what the
// physical array sees.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitutil"
	"repro/internal/cache"
	"repro/internal/cnfet"
	"repro/internal/encoding"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/fifo"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/recycle"
	"repro/internal/sram"
	"repro/internal/trace"
)

// Granularity selects how many data bits an access touches energetically.
type Granularity int

const (
	// GranularityLine charges every access for the full line, matching
	// the paper's equations (L is the cache line length in Eq. 4-6).
	GranularityLine Granularity = iota
	// GranularityWord charges only the accessed bytes (ablation).
	GranularityWord
)

// String names the granularity.
func (g Granularity) String() string {
	if g == GranularityWord {
		return "word"
	}
	return "line"
}

// SwitchCost selects how a drained re-encode is charged.
type SwitchCost int

const (
	// SwitchFlippedOnly charges a write of just the flipped partitions,
	// consistent with the per-partition threshold derivation (a write
	// mask keeps untouched partitions idle).
	SwitchFlippedOnly SwitchCost = iota
	// SwitchFullLine charges rewriting the entire line, the conservative
	// reading of the paper's E_encode (ablation).
	SwitchFullLine
)

// String names the switch-cost model.
func (s SwitchCost) String() string {
	if s == SwitchFullLine {
		return "full-line"
	}
	return "flipped-only"
}

// FillPolicy selects the encoding direction given to a freshly filled
// line, before any history exists.
type FillPolicy int

const (
	// FillNeutral stores fills unencoded and lets the predictor find the
	// right direction. For zero-heavy data this coincides with the
	// write-optimal choice; for dense read-heavy data it avoids
	// pessimizing the reads that follow the fill.
	FillNeutral FillPolicy = iota
	// FillWriteOptimal encodes the fill write itself optimally (minimum
	// ones stored), using the bit counter already present in the design
	// (ablation; helps write-dominated dense data, hurts read-heavy).
	FillWriteOptimal
)

// String names the fill policy.
func (f FillPolicy) String() string {
	if f == FillNeutral {
		return "neutral"
	}
	return "write-optimal"
}

// Options configures one CNTCache (or baseline variant).
type Options struct {
	// Spec selects the encoding policy and partition count.
	Spec encoding.Spec
	// Window is the predictor window W (adaptive only).
	Window int
	// DeltaT is the switch hysteresis (adaptive only).
	DeltaT float64
	// FIFODepth is the update queue capacity (adaptive only).
	FIFODepth int
	// IdleSlots is how many queued updates drain per access interval;
	// it models the idle-slot availability of the cache port.
	IdleSlots int
	// Table is the CNFET per-bit energy model.
	Table cnfet.EnergyTable
	// Periphery overrides the array peripheral energies; zero value
	// derives defaults from Table.
	Periphery *sram.Periphery
	// Granularity is the energy access-granularity model.
	Granularity Granularity
	// SwitchCost is the re-encode charging model.
	SwitchCost SwitchCost
	// FillPolicy is the initial direction for filled lines.
	FillPolicy FillPolicy
	// FillMasks pins a fixed per-line-address direction mask applied at
	// fill time. Required by (and only used with) the oracle-static
	// variant, whose masks come from an offline pass over the trace.
	FillMasks map[uint64]uint64
	// PolicyName selects the direction-prediction policy for the
	// adaptive variant: "window" (Algorithm 1, default), "conf2",
	// "conf3" or "ewma". See package predictor.
	PolicyName string
	// Metrics, when non-nil, receives hot-path telemetry counters,
	// gauges and histograms, registered under the wrapped cache's
	// lower-cased name ("l1d_accesses_total", ...). Nil — the default —
	// disables metrics entirely; the access path then carries no
	// telemetry state and stays allocation-free (see obs.go and
	// alloc_test.go).
	Metrics *obs.Registry
	// Trace, when non-nil, receives structured events (obs.AccessEvent,
	// obs.WindowEvent, obs.SwitchEvent, obs.DrainEvent, obs.FaultEvent,
	// and one closing obs.SummaryEvent per cache). The sink must be safe
	// for concurrent Emit calls when the options are shared across
	// simulations (core.Compare); obs.JSONLSink and obs.RingSink are.
	Trace obs.Sink
	// Fault, when non-nil and enabled, injects CNT device defects into
	// the simulated array: stuck cells, per-line energy spread, transient
	// access flips and predictor counter upsets (see internal/fault).
	// Each cache derives its injector seed from Fault.Seed mixed with its
	// own label, so both L1s of a run see independent fault streams. Nil
	// or a disabled config keeps the cache on the exact zero-fault path
	// (byte-identical results, 0 allocs/op on the hot path).
	Fault *fault.Config
}

// DefaultDeltaT is the default switch hysteresis. The paper selects ΔT
// empirically ("we will explore the relationship between ΔT and dynamic
// energy saving through a series of experiments"); experiment E7 sweeps
// it. On the benchmark suite the saving is flat up to ΔT≈0.1 and decays
// beyond, so 0.1 takes the free oscillation damping without costing the
// clear wins.
const DefaultDeltaT = 0.1

// DefaultOptions returns the CNT-Cache configuration used by the headline
// experiments: adaptive encoding, K=8 partitions, W=15 (the paper's
// default checkpoint), ΔT=0.1 hysteresis, a 16-entry update FIFO
// draining one entry per idle interval, on the reference CNFET device.
func DefaultOptions() Options {
	return Options{
		Spec:      encoding.Spec{Kind: encoding.KindAdaptive, Partitions: 8},
		Window:    15,
		DeltaT:    DefaultDeltaT,
		FIFODepth: 16,
		IdleSlots: 1,
		Table:     cnfet.MustTable(cnfet.CNFET32()),
	}
}

// BaselineOptions returns the plain CNFET cache (no encoding) on the same
// device.
func BaselineOptions() Options {
	return Options{
		Spec:  encoding.Spec{Kind: encoding.KindNone},
		Table: cnfet.MustTable(cnfet.CNFET32()),
	}
}

// Validate reports whether the options can build a CNTCache over lines
// of lineBytes bytes, without constructing any simulation state. New
// performs the same structural checks while building; Validate is the
// eager gate the declarative layers (internal/run, internal/config) use
// to fail before a single access is simulated. It is strictly stronger
// than New in one respect: an oracle-static spec without fill masks is
// rejected here, because a declarative description has no offline pass
// to supply them (see OracleVariant).
func (o Options) Validate(lineBytes int) error {
	if err := o.Spec.Validate(lineBytes); err != nil {
		return err
	}
	if err := o.Table.Validate(); err != nil {
		return err
	}
	if o.IdleSlots < 0 {
		return fmt.Errorf("core: idle slots must be non-negative, got %d", o.IdleSlots)
	}
	if o.Fault != nil {
		if err := o.Fault.Validate(); err != nil {
			return err
		}
	}
	switch o.Spec.Kind {
	case encoding.KindOracleStatic:
		if o.FillMasks == nil {
			return fmt.Errorf("core: the oracle variant needs offline fill masks (see OracleVariant)")
		}
	case encoding.KindAdaptive:
		if o.Window <= 0 {
			return fmt.Errorf("core: adaptive encoding needs a positive window")
		}
		if _, err := sram.MetadataBits(o.Window, o.Spec.Partitions); err != nil {
			return err
		}
		base, err := predictor.New(predictor.Config{
			Window:     o.Window,
			LineBytes:  lineBytes,
			Partitions: o.Spec.Partitions,
			Table:      o.Table,
			DeltaT:     o.DeltaT,
		})
		if err != nil {
			return err
		}
		if _, err := predictor.NewPolicy(o.PolicyName, base); err != nil {
			return err
		}
		depth := o.FIFODepth
		if depth <= 0 {
			depth = 16
		}
		if _, err := fifo.New(depth); err != nil {
			return err
		}
	}
	return nil
}

// lineState is the per-line CNT-Cache state alongside the architectural
// line: the direction mask and the H&D history counters.
type lineState struct {
	mask uint64
	hist predictor.LineState
	// storedOnes caches encoding.StoredOnes(pc, partBits, mask) for the
	// line's current counts and mask: the full-line stored ones count
	// the energy model charges on every access. Updated wherever the
	// counts (fill, store) or the mask (fill, greedy re-encode, drain)
	// change, so reads charge from one load instead of a per-partition
	// reduction.
	storedOnes int
}

// CNTCache wraps one cache level with encoding, prediction and energy
// accounting.
type CNTCache struct {
	opts  Options
	cache *cache.Cache
	arr   *sram.Array
	pred  predictor.Policy
	// predBase is the concrete window predictor underneath pred. Every
	// policy delegates RecordAccess to it unchanged (only Decide and
	// StateBits differ), so the hot path calls it directly — same
	// method, minus the per-access interface dispatch.
	predBase *predictor.Predictor
	queue    *fifo.Queue

	// state[set*ways+way] is the line's encoding state.
	state []lineState

	lineBytes   int
	lineBits    int
	parts       int
	partBits    int
	metaBits    int
	histBits    int
	counterBits int
	ways        int

	// partOnes caches the logical (unencoded) per-partition ones count
	// of every resident line, indexed (set*ways+way)*parts + p. The
	// counts are refreshed at fill time and recounted for the touched
	// partitions on every store, so they are valid whenever the
	// architectural line is — replacing the full-line popcounts that
	// dominated the replay hot path. Stored (encoded) counts derive via
	// encoding.StoredOnes, which is the same integer arithmetic the
	// byte-walking storedOnes performs, so energies stay bit-identical.
	partOnes []int

	// Energy lookup tables, indexed by ones count. Each entry is the
	// exact output of the corresponding sram.Array call at construction
	// time — same floats, just precomputed — covering the spans the
	// replay loop charges constantly: full data lines and the metadata /
	// history fields. Off-table spans fall through to the direct call.
	lutLineRead  []float64
	lutLineWrite []float64
	lutMetaRead  []float64
	lutMetaWrite []float64
	lutHistWrite []float64
	lookupE      float64
	encoderLineE float64

	eb energy.Breakdown

	// inj is the device fault injector; nil (the default) keeps every
	// fault hook compiled out of the executed path via one nil-check.
	inj *fault.Injector

	switches       uint64
	windows        uint64
	staleDrops     uint64
	perPartScratch []int

	// hot is true when the configuration has no per-access observers or
	// modifiers — no fault injector, no metrics, no event sink, line
	// granularity — so AccessBatch may run its fused fast path. The fast
	// path performs the exact operations of accessPiece in the same
	// order; it only skips the gates that this flag proves are closed.
	hot bool

	// Telemetry (see obs.go): both nil unless Options enabled them.
	met  *coreMetrics
	sink obs.Sink
}

// New builds a CNTCache over the given architectural cache configuration
// and backend.
func New(cfg cache.Config, next cache.Backend, opts Options) (*CNTCache, error) {
	if err := opts.Spec.Validate(cfg.Geometry.LineBytes); err != nil {
		return nil, err
	}
	if err := opts.Table.Validate(); err != nil {
		return nil, err
	}
	if opts.IdleSlots < 0 {
		return nil, fmt.Errorf("core: idle slots must be non-negative, got %d", opts.IdleSlots)
	}

	c := &CNTCache{
		opts:      opts,
		lineBytes: cfg.Geometry.LineBytes,
		lineBits:  cfg.Geometry.LineBytes * 8,
	}

	if opts.Fault != nil && opts.Fault.Enabled() {
		inj, err := fault.New(*opts.Fault, cfg.Geometry, cfg.Name)
		if err != nil {
			return nil, err
		}
		c.inj = inj
	} else if opts.Fault != nil {
		if err := opts.Fault.Validate(); err != nil {
			return nil, err
		}
	}

	parts := opts.Spec.Partitions
	if opts.Spec.Kind == encoding.KindNone {
		parts = 1
	}
	c.parts = parts
	c.partBits = c.lineBits / parts

	// Metadata width: direction bits for every encoded variant, history
	// counters only for the adaptive one.
	switch opts.Spec.Kind {
	case encoding.KindNone:
		c.metaBits, c.histBits = 0, 0
	case encoding.KindAdaptive:
		if opts.Window <= 0 {
			return nil, fmt.Errorf("core: adaptive encoding needs a positive window")
		}
		mb, err := sram.MetadataBits(opts.Window, parts)
		if err != nil {
			return nil, err
		}
		// MetadataBits is 2*counterBits + parts; recover the per-counter
		// width the upset model flips bits within.
		c.counterBits = (mb - parts) / 2
		base, err := predictor.New(predictor.Config{
			Window:     opts.Window,
			LineBytes:  cfg.Geometry.LineBytes,
			Partitions: parts,
			Table:      opts.Table,
			DeltaT:     opts.DeltaT,
		})
		if err != nil {
			return nil, err
		}
		pol, err := predictor.NewPolicy(opts.PolicyName, base)
		if err != nil {
			return nil, err
		}
		c.pred = pol
		c.predBase = base
		c.metaBits = mb + pol.StateBits()
		c.histBits = mb - parts + pol.StateBits()
		depth := opts.FIFODepth
		if depth <= 0 {
			depth = 16
		}
		q, err := fifo.New(depth)
		if err != nil {
			return nil, err
		}
		c.queue = q
	default:
		c.metaBits = opts.Spec.DirectionBits()
	}

	geom := cfg.Geometry
	geom.MetaBitsPerLine = c.metaBits
	perif := sram.DefaultPeriphery(opts.Table)
	if opts.Periphery != nil {
		perif = *opts.Periphery
	}
	arr, err := sram.NewArray(geom, opts.Table, perif)
	if err != nil {
		return nil, err
	}
	c.arr = arr

	inner, err := cache.New(cfg, next)
	if err != nil {
		return nil, err
	}
	c.cache = inner
	// A dirty victim is read out of the array on its way to the backend;
	// the hook sees the exact stored bits before the fill replaces them.
	inner.SetEvictHook(func(set, way int, data []byte, dirty bool) {
		if !dirty {
			return
		}
		st := &c.state[set*c.ways+way]
		// The victim's cached count is still current: the hook fires
		// before the fill replaces the data.
		ones := st.storedOnes
		if c.inj != nil {
			ones = c.faultedOnes(ones, data, st.mask, 0, c.lineBytes, set, way)
		}
		c.eb.DataRead += c.scaled(c.readEnergy(ones, c.lineBytes), set, way)
	})

	c.state = stateBin.Get(geom.Sets * geom.Ways)
	c.perPartScratch = make([]int, parts)
	c.ways = geom.Ways
	c.partOnes = countBin.Get(geom.Sets * geom.Ways * parts)

	c.lookupE = arr.LookupEnergy()
	c.encoderLineE = float64(c.lineBits) * opts.Table.EncoderBit
	c.lutLineRead = make([]float64, c.lineBits+1)
	c.lutLineWrite = make([]float64, c.lineBits+1)
	for n := range c.lutLineRead {
		c.lutLineRead[n] = arr.ReadEnergy(n, c.lineBytes)
		c.lutLineWrite[n] = arr.WriteEnergy(n, c.lineBytes)
	}
	if c.metaBits > 0 {
		c.lutMetaRead = make([]float64, c.metaBits+1)
		c.lutMetaWrite = make([]float64, c.metaBits+1)
		for n := range c.lutMetaRead {
			c.lutMetaRead[n] = arr.ReadMetaEnergy(n, c.metaBits)
			c.lutMetaWrite[n] = arr.WriteMetaEnergy(n, c.metaBits)
		}
	}
	if c.histBits > 0 {
		c.lutHistWrite = make([]float64, c.histBits+1)
		for n := range c.lutHistWrite {
			c.lutHistWrite[n] = arr.WriteMetaEnergy(n, c.histBits)
		}
	}

	if opts.Metrics != nil {
		c.met = newCoreMetrics(opts.Metrics, inner.Name())
	}
	c.sink = opts.Trace
	c.hot = c.inj == nil && c.met == nil && c.sink == nil &&
		opts.Granularity == GranularityLine
	return c, nil
}

// Recycled per-line arrays, shared by every CNTCache of the process
// (see package recycle and Sim.Release).
var (
	stateBin recycle.Bin[lineState]
	countBin recycle.Bin[int]
)

// release hands the line state, the cached partition counts and the
// wrapped cache's arrays back to the recycler. Counters and energy stay
// readable; everything that touches the array does not.
func (c *CNTCache) release() {
	c.cache.Release()
	stateBin.Put(c.state)
	countBin.Put(c.partOnes)
	c.state, c.partOnes = nil, nil
}

// Options returns the configuration.
func (c *CNTCache) Options() Options { return c.opts }

// Cache exposes the wrapped architectural cache.
func (c *CNTCache) Cache() *cache.Cache { return c.cache }

// Energy returns the accumulated breakdown.
func (c *CNTCache) Energy() energy.Breakdown { return c.eb }

// Stats returns the architectural counters.
func (c *CNTCache) Stats() cache.Stats { return c.cache.Stats() }

// FIFOStats returns the update-queue accounting (zero for non-adaptive).
func (c *CNTCache) FIFOStats() fifo.Stats {
	if c.queue == nil {
		return fifo.Stats{}
	}
	return c.queue.Stats()
}

// Switches returns the number of direction switches applied.
func (c *CNTCache) Switches() uint64 { return c.switches }

// FaultStats returns the fault injector's accounting; zero without
// fault injection.
func (c *CNTCache) FaultStats() fault.Stats {
	if c.inj == nil {
		return fault.Stats{}
	}
	return c.inj.Stats()
}

// Windows returns the number of completed prediction windows.
func (c *CNTCache) Windows() uint64 { return c.windows }

// MetaBitsPerLine returns the H&D width this variant adds to each line.
func (c *CNTCache) MetaBitsPerLine() int { return c.metaBits }

// CellsTotal returns the number of SRAM cells in the array, data plus
// metadata columns.
func (c *CNTCache) CellsTotal() int {
	g := c.cache.Geometry()
	return g.Lines() * (c.lineBits + c.metaBits)
}

// Leakage returns the accumulated standby leakage estimate in fJ: every
// cell leaks for one cycle per access served. The paper's evaluation is
// dynamic-only (CNFET leakage is low — that is part of its appeal); this
// activity-proportional estimate feeds the E12 extension experiment,
// which asks whether the H&D metadata's extra leaking cells erode the
// dynamic savings.
func (c *CNTCache) Leakage() float64 {
	return float64(c.cache.Stats().Accesses) * float64(c.CellsTotal()) * c.opts.Table.LeakBitCycle
}

// storedOnes returns the ones count of the stored (encoded) image of the
// byte range [off, off+size) of the logical line under mask.
func (c *CNTCache) storedOnes(logical []byte, mask uint64, off, size int) int {
	partBytes := c.lineBytes / c.parts
	ones := 0
	for p := off / partBytes; p*partBytes < off+size; p++ {
		lo := p * partBytes
		hi := lo + partBytes
		if lo < off {
			lo = off
		}
		if hi > off+size {
			hi = off + size
		}
		n := bitutil.Ones(logical[lo:hi])
		if mask&(1<<uint(p)) != 0 {
			n = (hi-lo)*8 - n
		}
		ones += n
	}
	return ones
}

// lineCounts returns the cached logical per-partition ones counts of
// one line (see the partOnes field invariants).
func (c *CNTCache) lineCounts(set, way int) []int {
	i := (set*c.ways + way) * c.parts
	return c.partOnes[i : i+c.parts : i+c.parts]
}

// refreshCounts recounts every partition of a line from its bytes
// (fill time: the whole payload was just replaced).
func (c *CNTCache) refreshCounts(pc []int, logical []byte) {
	partBytes := c.lineBytes / c.parts
	for p := range pc {
		pc[p] = bitutil.Ones(logical[p*partBytes : (p+1)*partBytes])
	}
}

// recountSpan recounts just the partitions a store touched (data has
// already been copied into the line by the architectural cache) and
// folds the change into the line's cached stored-ones count: an
// uninverted partition contributes its new count in place of its old
// one, an inverted partition the complements — the same arithmetic a
// full encoding.StoredOnes reduction would redo.
func (c *CNTCache) recountSpan(st *lineState, pc []int, logical []byte, off, size int) {
	partBytes := c.lineBytes / c.parts
	stored := st.storedOnes
	for p := off / partBytes; p*partBytes < off+size; p++ {
		old := pc[p]
		n := bitutil.Ones(logical[p*partBytes : (p+1)*partBytes])
		pc[p] = n
		if st.mask&(1<<uint(p)) != 0 {
			stored += old - n
		} else {
			stored += n - old
		}
	}
	st.storedOnes = stored
}

// spanOnes returns the stored ones count of a charged span: the line's
// cached count when the span is the whole line (the GranularityLine
// path, i.e. every headline configuration), from the bytes otherwise
// (word-granularity spans may cut partitions).
func (c *CNTCache) spanOnes(st *lineState, logical []byte, off, size int) int {
	if off == 0 && size == c.lineBytes {
		return st.storedOnes
	}
	return c.storedOnes(logical, st.mask, off, size)
}

// readEnergy and writeEnergy serve full-line data-array charges from
// the construction-time lookup tables; off-table spans (word
// granularity) fall through to the identical direct computation.
func (c *CNTCache) readEnergy(ones, nBytes int) float64 {
	if nBytes == c.lineBytes && uint(ones) < uint(len(c.lutLineRead)) {
		return c.lutLineRead[ones]
	}
	return c.arr.ReadEnergy(ones, nBytes)
}

func (c *CNTCache) writeEnergy(ones, nBytes int) float64 {
	if nBytes == c.lineBytes && uint(ones) < uint(len(c.lutLineWrite)) {
		return c.lutLineWrite[ones]
	}
	return c.arr.WriteEnergy(ones, nBytes)
}

// metaReadEnergy, metaWriteEnergy and histWriteEnergy are the metadata
// equivalents over the full H&D field and the history subfield. A ones
// count beyond the field width (possible when policy Aux state carries
// more set bits than its accounted StateBits) falls through, preserving
// the direct call's range checking.
func (c *CNTCache) metaReadEnergy(ones int) float64 {
	if uint(ones) < uint(len(c.lutMetaRead)) {
		return c.lutMetaRead[ones]
	}
	return c.arr.ReadMetaEnergy(ones, c.metaBits)
}

func (c *CNTCache) metaWriteEnergy(ones int) float64 {
	if uint(ones) < uint(len(c.lutMetaWrite)) {
		return c.lutMetaWrite[ones]
	}
	return c.arr.WriteMetaEnergy(ones, c.metaBits)
}

func (c *CNTCache) histWriteEnergy(ones int) float64 {
	if uint(ones) < uint(len(c.lutHistWrite)) {
		return c.lutHistWrite[ones]
	}
	return c.arr.WriteMetaEnergy(ones, c.histBits)
}

// scaled applies the line's CNT-count energy-spread multiplier to a
// data-array energy charge; identity without an injector.
func (c *CNTCache) scaled(e float64, set, way int) float64 {
	if c.inj == nil {
		return e
	}
	return e * c.inj.Scale(set, way)
}

// storedBit returns the stored (encoded) value of line bit b: the
// logical bit inverted when its partition's direction bit is set.
func (c *CNTCache) storedBit(logical []byte, mask uint64, b int) bool {
	v := logical[b/8]>>(uint(b)&7)&1 == 1
	partBytes := c.lineBytes / c.parts
	if mask&(1<<uint((b/8)/partBytes)) != 0 {
		v = !v
	}
	return v
}

// faultedOnes corrects a stored-ones count for the line's stuck cells
// within [off, off+size): a cell shorted to the opposite of the value
// the encoding wants contributes the stuck value to the array instead,
// shifting the bitline energy and counting as a corrupted bit. Only
// called with an injector attached.
func (c *CNTCache) faultedOnes(ones int, logical []byte, mask uint64, off, size, set, way int) int {
	loBit, hiBit := off*8, (off+size)*8
	corrupted := 0
	for _, sc := range c.inj.Stuck(set, way) {
		if sc.Bit < loBit {
			continue
		}
		if sc.Bit >= hiBit {
			break // stuck cells are listed in bit order
		}
		if c.storedBit(logical, mask, sc.Bit) == sc.One {
			continue
		}
		corrupted++
		if sc.One {
			ones++
		} else {
			ones--
		}
	}
	if corrupted != 0 {
		c.inj.ObserveCorrupted(corrupted)
	}
	return ones
}

// injectAccessFaults applies the device fault model to one demand access
// span: the line's stuck cells correct the stored-ones count, and the
// per-access transient draw may flip one in-flight bit (adjusting the
// sensed/driven ones and emitting a FaultEvent). Only called with an
// injector attached; fills, writebacks and drains see stuck cells but
// never transients — those model bitline/sense-amp upsets on the demand
// port.
func (c *CNTCache) injectAccessFaults(ones int, logical []byte, st *lineState, res cache.Result, off, size int, write bool) int {
	ones = c.faultedOnes(ones, logical, st.mask, off, size, res.Set, res.Way)
	if idx, ok := c.inj.TransientBit(write, size*8); ok {
		if c.storedBit(logical, st.mask, off*8+idx) {
			ones--
		} else {
			ones++
		}
		// Stuck corrections and the flip each move the count by one; a
		// collision on the same bit could in principle step outside the
		// physical range, so clamp to what the array can hold.
		if ones < 0 {
			ones = 0
		} else if ones > size*8 {
			ones = size * 8
		}
		kind := "read-flip"
		if write {
			kind = "write-flip"
		}
		c.observeFault(kind, res.Set, res.Way, idx)
	}
	return ones
}

// accessSpan returns the byte range energy is charged for.
func (c *CNTCache) accessSpan(res cache.Result) (off, size int) {
	if c.opts.Granularity == GranularityWord {
		return res.Offset, res.Size
	}
	return 0, c.lineBytes
}

// metaOnes approximates the ones stored in a line's metadata field.
func (c *CNTCache) metaOnes(st *lineState) int {
	return st.hist.Bits() + bits.OnesCount64(st.mask)
}

// Access runs one data access through the cache, charging energy.
// Steady-state accesses (single-line, hit, no fill) perform no heap
// allocations; alloc_test.go pins this with testing.AllocsPerRun.
func (c *CNTCache) Access(a trace.Access) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if cache.SameLine(a, c.lineBytes) {
		// The ~100% common case: the access touches one line. Dispatch
		// directly instead of materializing a piece slice.
		if err := c.accessPiece(a); err != nil {
			return err
		}
	} else if err := cache.SplitEach(a, c.lineBytes, c.accessPiece); err != nil {
		return err
	}
	// Idle interval after the access: drain queued re-encodes.
	c.drain(c.opts.IdleSlots)
	return nil
}

// ReadLine implements cache.Backend, letting an encoded cache serve as
// a shared lower level: an upper level's fill arrives as one full-line
// read, charged through the exact generic access path (lookup,
// fill/writeback accounting, decode of the stored image, encoder pass,
// predictor bookkeeping), followed by the same idle-interval drain an
// architectural access gets. The request bypasses trace.Access.Validate
// deliberately — backend traffic is line-granular (a 64-byte-plus line
// is no trace access) and reads into a destination buffer, both outside
// the trace grammar; hierarchy validation pins the upper line to at
// most this level's, so the piece can never cross a line boundary.
func (c *CNTCache) ReadLine(addr uint64, dst []byte) error {
	if len(dst) > c.lineBytes {
		return fmt.Errorf("core: %s: upper-level line %d exceeds mine %d", c.cache.Name(), len(dst), c.lineBytes)
	}
	if err := c.accessPiece(trace.Access{Op: trace.Read, Addr: addr, Size: len(dst), Data: dst}); err != nil {
		return err
	}
	c.drain(c.opts.IdleSlots)
	return nil
}

// WriteLine implements cache.Backend: an upper level's writeback lands
// as one full-line write. Under an encoding variant the line is
// re-encoded on arrival (fill-policy mask on a miss, the live
// direction state on a hit) — this is the encoded-writeback path the
// multi-level experiments exercise.
func (c *CNTCache) WriteLine(addr uint64, src []byte) error {
	if len(src) > c.lineBytes {
		return fmt.Errorf("core: %s: upper-level line %d exceeds mine %d", c.cache.Name(), len(src), c.lineBytes)
	}
	if err := c.accessPiece(trace.Access{Op: trace.Write, Addr: addr, Size: len(src), Data: src}); err != nil {
		return err
	}
	c.drain(c.opts.IdleSlots)
	return nil
}

// AccessBatch replays a block of accesses in order, exactly as calling
// Access on each would: same cache state transitions, same energy
// accumulation order, same observable event stream (internal/check
// holds the two paths to identical reports and events). The batch form
// amortizes per-call overhead for the replay loops in internal/run and
// core.Sim. It returns the number of accesses fully applied; on error,
// accs[n] is the access that failed.
func (c *CNTCache) AccessBatch(accs []trace.Access) (int, error) {
	if c.hot {
		return c.accessBatchHot(accs)
	}
	idle := c.opts.IdleSlots
	for i := range accs {
		a := accs[i]
		if err := a.Validate(); err != nil {
			return i, err
		}
		if cache.SameLine(a, c.lineBytes) {
			if err := c.accessPiece(a); err != nil {
				return i, err
			}
		} else if err := cache.SplitEach(a, c.lineBytes, c.accessPiece); err != nil {
			return i, err
		}
		c.drain(idle)
	}
	return len(accs), nil
}

// accessBatchHot is AccessBatch's fused loop for the no-observer, no-
// fault, line-granularity configuration (the headline experiments).
func (c *CNTCache) accessBatchHot(accs []trace.Access) (int, error) {
	for i := range accs {
		if err := c.accessHotOne(&accs[i]); err != nil {
			return i, err
		}
	}
	return len(accs), nil
}

// accessHotOne runs one access through the fused fast path: the hit case
// of accessPiece is inlined around cache.AccessHot so a replay access
// pays one call into the architectural array instead of a stack of gated
// helpers. Misses, line-crossers and invalid accesses fall back to the
// exact generic path. Only valid when c.hot; every energy charge below
// mirrors an accessPiece line, in accessPiece's order, reading the same
// LUT entries — internal/check's batch/serial differential holds the two
// paths to identical reports.
func (c *CNTCache) accessHotOne(a *trace.Access) error {
	if err := a.Validate(); err != nil {
		return err
	}
	write := a.Op == trace.Write
	set, way, off, logical, ok := c.cache.AccessHot(write, a.Addr, a.Size, a.Data)
	if !ok {
		// Miss, cross-line or invalid: the generic piece path redoes
		// validation and counts the access exactly once.
		if cache.SameLine(*a, c.lineBytes) {
			if err := c.accessPiece(*a); err != nil {
				return err
			}
		} else if err := cache.SplitEach(*a, c.lineBytes, c.accessPiece); err != nil {
			return err
		}
		if c.queue != nil && c.queue.Len() > 0 {
			c.drain(c.opts.IdleSlots)
		}
		return nil
	}

	c.eb.Periphery += c.lookupE
	st := &c.state[set*c.ways+way]
	pc := c.lineCounts(set, way)

	kind := c.opts.Spec.Kind
	if write {
		c.recountSpan(st, pc, logical, off, a.Size)
		if kind == encoding.KindWriteGreedy {
			c.greedyReencode(set, way, st, pc, 0, c.lineBytes)
		}
		c.eb.DataWrite += c.lutLineWrite[st.storedOnes]
	} else {
		c.eb.DataRead += c.lutLineRead[st.storedOnes]
	}
	if kind != encoding.KindNone {
		c.eb.Encoder += c.encoderLineE
		mo := c.metaOnes(st)
		if uint(mo) < uint(len(c.lutMetaRead)) {
			c.eb.MetaRead += c.lutMetaRead[mo]
		} else {
			c.eb.MetaRead += c.arr.ReadMetaEnergy(mo, c.metaBits)
		}
	}
	if c.predBase != nil {
		// recordHistory's common case, open-coded so the per-access
		// counter tick inlines: RecordAccess plus one history rewrite.
		if !c.predBase.RecordAccess(&st.hist, write) {
			ones := st.hist.Bits()
			if uint(ones) < uint(len(c.lutHistWrite)) {
				c.eb.MetaWrite += c.lutHistWrite[ones]
			} else {
				c.eb.MetaWrite += c.arr.WriteMetaEnergy(ones, c.histBits)
			}
		} else {
			c.windowRoll(set, way, st, pc)
		}
	}
	if c.queue != nil && c.queue.Len() > 0 {
		c.drain(c.opts.IdleSlots)
	}
	return nil
}

func (c *CNTCache) accessPiece(a trace.Access) error {
	write := a.Op == trace.Write
	var before energy.Breakdown
	observing := c.observing()
	if observing {
		before = c.eb
	}

	// Writeback read-out happens before the fill overwrites the victim:
	// peek at the victim's cost by observing the eviction in the result.
	// The architectural cache has already moved the data; we reconstruct
	// the energy from the state we keep.
	res, err := c.cache.Access(write, a.Addr, a.Size, a.Data)
	if err != nil {
		return err
	}

	c.eb.Periphery += c.lookupE
	st := &c.state[res.Set*c.ways+res.Way]
	pc := c.lineCounts(res.Set, res.Way)

	logical, _, _, _ := c.cache.Line(res.Set, res.Way)

	if res.Filled {
		// The fill (and, for a write miss, the store riding it) replaced
		// the payload; onFill refreshes the cached counts from it.
		c.onFill(res, st, pc, logical)
	} else if write {
		// The store's bytes already landed in the line (cache.Access
		// copies before returning); recount the partitions it touched.
		c.recountSpan(st, pc, logical, res.Offset, res.Size)
	}

	off, size := c.accessSpan(res)

	if write {
		if c.opts.Spec.Kind == encoding.KindWriteGreedy {
			c.greedyReencode(res.Set, res.Way, st, pc, off, size)
		}
		ones := c.spanOnes(st, logical, off, size)
		if c.inj != nil {
			ones = c.injectAccessFaults(ones, logical, st, res, off, size, true)
		}
		c.eb.DataWrite += c.scaled(c.writeEnergy(ones, size), res.Set, res.Way)
	} else {
		ones := c.spanOnes(st, logical, off, size)
		if c.inj != nil {
			ones = c.injectAccessFaults(ones, logical, st, res, off, size, false)
		}
		c.eb.DataRead += c.scaled(c.readEnergy(ones, size), res.Set, res.Way)
	}
	// Every access passes the encoder stage (mux+inverter per bit).
	if c.opts.Spec.Kind != encoding.KindNone {
		if size == c.lineBytes {
			c.eb.Encoder += c.encoderLineE
		} else {
			c.eb.Encoder += float64(size*8) * c.opts.Table.EncoderBit
		}
		// The H&D field is read alongside the line.
		c.eb.MetaRead += c.metaReadEnergy(c.metaOnes(st))
	}

	if c.pred != nil {
		c.recordHistory(res.Set, res.Way, st, pc, write)
	}
	if observing {
		// The delta covers everything this piece charged — fill,
		// writeback read-out, encoder pass and predictor bookkeeping
		// included — so summed deltas reconcile with the final
		// breakdown (internal/check.ReconcileReport).
		c.observeAccess(a, res, c.eb.Sub(before))
	}
	return nil
}

// onFill initializes the state of a freshly filled line and charges the
// fill write (plus the displaced victim's writeback read-out).
func (c *CNTCache) onFill(res cache.Result, st *lineState, pc []int, logical []byte) {
	if res.Evicted {
		// The dirty-victim read-out energy was charged by the evict hook,
		// which saw the exact stored bits before the fill replaced them.
		if c.queue != nil {
			if c.queue.Invalidate(res.Set, res.Way) {
				c.staleDrops++
				if c.met != nil {
					// A pending re-encode died with its line: a
					// cancelled switch decision.
					c.met.switchCancelled.Inc()
				}
			}
		}
	}
	st.hist = predictor.LineState{} // fresh resident: clear policy state too
	st.mask = 0

	c.refreshCounts(pc, logical)
	switch c.opts.Spec.Kind {
	case encoding.KindNone:
	case encoding.KindStaticWrite, encoding.KindWriteGreedy:
		st.mask = encoding.MaskMinOnesCounts(pc, c.partBits)
	case encoding.KindStaticRead:
		st.mask = encoding.MaskMaxOnesCounts(pc, c.partBits)
	case encoding.KindAdaptive:
		if c.opts.FillPolicy == FillWriteOptimal {
			st.mask = encoding.MaskMinOnesCounts(pc, c.partBits)
		}
	case encoding.KindOracleStatic:
		st.mask = c.opts.FillMasks[res.LineAddr]
	}

	st.storedOnes = encoding.StoredOnes(pc, c.partBits, st.mask)
	ones := st.storedOnes
	if c.inj != nil {
		ones = c.faultedOnes(ones, logical, st.mask, 0, c.lineBytes, res.Set, res.Way)
	}
	c.eb.DataWrite += c.scaled(c.writeEnergy(ones, c.lineBytes), res.Set, res.Way)
	if c.metaBits > 0 {
		c.eb.MetaWrite += c.metaWriteEnergy(c.metaOnes(st))
	}
}

// greedyReencode is the bus-invert-style baseline: on every store, re-pick
// the masks of the partitions the write touches to minimize stored ones,
// charging the direction-bit rewrite. Untouched partitions keep their
// direction (they are not physically rewritten by the store).
func (c *CNTCache) greedyReencode(set, way int, st *lineState, pc []int, off, size int) {
	optimal := encoding.MaskMinOnesCounts(pc, c.partBits)
	partBytes := c.lineBytes / c.parts
	var touched uint64
	for p := off / partBytes; p*partBytes < off+size; p++ {
		touched |= 1 << uint(p)
	}
	newMask := st.mask&^touched | optimal&touched
	if newMask != st.mask {
		old := st.mask
		st.mask = newMask
		st.storedOnes = encoding.StoredOnes(pc, c.partBits, newMask)
		c.eb.MetaWrite += c.metaWriteEnergy(c.metaOnes(st))
		c.switches++
		if c.observing() {
			// The re-encode energy rides the enclosing AccessEvent; the
			// switch itself is still worth a record of its own.
			c.observeSwitch(set, way, old, newMask, "greedy")
		}
	}
}

// recordHistory advances Algorithm 1 for the accessed line. The common
// case — a counter tick inside an open window — stays small enough to
// inline into the replay loops; a completed window falls through to
// windowRoll.
func (c *CNTCache) recordHistory(set, way int, st *lineState, pc []int, write bool) {
	if !c.predBase.RecordAccess(&st.hist, write) {
		// Counter update: rewrite the history bits.
		ones := st.hist.Bits()
		if uint(ones) < uint(len(c.lutHistWrite)) {
			c.eb.MetaWrite += c.lutHistWrite[ones]
		} else {
			c.eb.MetaWrite += c.arr.WriteMetaEnergy(ones, c.histBits)
		}
		return
	}
	c.windowRoll(set, way, st, pc)
}

// windowRoll evaluates a completed prediction window: the decision,
// its queueing, and the counter reset of Algorithm 1.
func (c *CNTCache) windowRoll(set, way int, st *lineState, pc []int) {
	c.windows++
	if c.inj != nil {
		if idx, ok := c.inj.UpsetCounter(c.counterBits); ok {
			// Flip one H&D counter bit, then clamp back into the
			// 0 ≤ Wr_num ≤ A_num ≤ W invariant the threshold table is
			// indexed by — the physical field is exactly this wide, so
			// hardware cannot represent anything beyond it either. The
			// corrupted counters feed the decision below: that is the
			// observable damage (wrong pattern class, wrong thresholds).
			if idx < c.counterBits {
				st.hist.ANum ^= 1 << uint(idx)
			} else {
				st.hist.WrNum ^= 1 << uint(idx-c.counterBits)
			}
			if int(st.hist.ANum) > c.opts.Window {
				st.hist.ANum = uint16(c.opts.Window)
			}
			if st.hist.WrNum > st.hist.ANum {
				st.hist.WrNum = st.hist.ANum
			}
			c.observeFault("upset", set, way, idx)
		}
	}
	aNum, wrNum := int(st.hist.ANum), int(st.hist.WrNum)

	// Stored per-partition ones from the cached logical counts; the
	// scratch copy keeps the cache itself untouched.
	per := c.perPartScratch
	copy(per, pc)
	for p := range per {
		if st.mask&(1<<uint(p)) != 0 {
			per[p] = c.partBits - per[p]
		}
	}
	d := c.pred.Decide(&st.hist, per)
	enqueued, dropped := false, false
	if d.FlipMask != 0 {
		ones := 0
		for p := range per {
			if d.FlipMask&(1<<uint(p)) != 0 {
				ones += c.partBits - per[p] // ones after the flip
			} else if c.opts.SwitchCost == SwitchFullLine {
				ones += per[p]
			}
		}
		update := fifo.Update{Set: set, Way: way, Mask: st.mask ^ d.FlipMask, Ones: ones}
		enqueued = c.queue.Push(update)
		dropped = !enqueued
	}
	if c.observing() {
		c.observeWindow(set, way, aNum, wrNum, d, per, enqueued, dropped)
	}
	// Algorithm 1 resets the counters after every prediction. The
	// triggering access is already counted in the window just evaluated
	// (RecordAccess counts it before reporting completion), so the next
	// window starts empty; the reset is one physical rewrite of the
	// history field.
	st.hist.Reset()
	c.eb.MetaWrite += c.histWriteEnergy(st.hist.Bits())
}

// drain retires up to n queued re-encodes into the array.
func (c *CNTCache) drain(n int) {
	if c.queue == nil {
		return
	}
	for i := 0; i < n; i++ {
		u, ok := c.queue.Pop()
		if !ok {
			return
		}
		c.retire(u)
	}
}

// retire applies one update popped from the FIFO: discarded when the
// line has been evicted (stale) or the mask already matches (a no-op a
// later coalesce made redundant), otherwise the re-encode write is
// charged against the line as it is now — the data may have been
// written between decision and drain.
func (c *CNTCache) retire(u fifo.Update) {
	var before energy.Breakdown
	observing := c.observing()
	if observing {
		before = c.eb
	}
	applied, stale := false, false
	st := &c.state[u.Set*c.ways+u.Way]
	logical, _, valid, _ := c.cache.Line(u.Set, u.Way)
	switch {
	case !valid:
		c.staleDrops++
		stale = true
	case st.mask^u.Mask != 0:
		flips := st.mask ^ u.Mask
		oldMask := st.mask
		st.mask = u.Mask
		c.switches++
		applied = true

		// Switch energy: write of the re-encoded bits plus the direction
		// bits.
		partBytes := c.lineBytes / c.parts
		pc := c.lineCounts(u.Set, u.Way)
		st.storedOnes = encoding.StoredOnes(pc, c.partBits, u.Mask)
		nbytes := 0
		ones := 0
		for p := 0; p < c.parts; p++ {
			inFlip := flips&(1<<uint(p)) != 0
			if !inFlip && c.opts.SwitchCost != SwitchFullLine {
				continue
			}
			nbytes += partBytes
			po := pc[p]
			if st.mask&(1<<uint(p)) != 0 {
				po = c.partBits - po
			}
			if c.inj != nil {
				po = c.faultedOnes(po, logical, st.mask, p*partBytes, partBytes, u.Set, u.Way)
			}
			ones += po
		}
		c.eb.Switch += c.scaled(c.writeEnergy(ones, nbytes), u.Set, u.Way)
		c.eb.MetaWrite += c.metaWriteEnergy(c.metaOnes(st))
		if observing {
			c.observeSwitch(u.Set, u.Way, oldMask, u.Mask, "drain")
		}
	}
	if observing {
		c.observeDrain(u.Set, u.Way, u.Mask, applied, stale, c.eb.Sub(before))
	}
}

// DrainAll retires every queued update (end of simulation).
func (c *CNTCache) DrainAll() {
	if c.queue == nil {
		return
	}
	c.drain(c.queue.Len())
}
