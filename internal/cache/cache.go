// Package cache implements the architectural cache simulator CNT-Cache is
// evaluated on: set-associative arrays with configurable replacement,
// write-back + write-allocate semantics, real data storage, and a
// multi-level hierarchy over a sparse backing memory.
//
// The cache deals purely in logical (unencoded) bytes and functional
// correctness; the energy/encoding layer (package core) drives it through
// the Result records each access returns — which way hit, what was
// evicted, whether a fill happened — and keeps its own per-line encoding
// state alongside.
package cache

import (
	"fmt"

	"repro/internal/recycle"
	"repro/internal/sram"
	"repro/internal/trace"
)

// Backend is the next level below a cache: either another cache or main
// memory. Line granularity is the requesting cache's line size.
type Backend interface {
	// ReadLine fills dst with the line at the (line-aligned) address.
	ReadLine(addr uint64, dst []byte) error
	// WriteLine stores a full line at the (line-aligned) address.
	WriteLine(addr uint64, src []byte) error
}

// Config describes one cache level.
type Config struct {
	// Name labels the cache in stats and errors ("L1D", "L1I", "L2").
	Name string
	// Geometry is the array organization.
	Geometry sram.Geometry
	// Policy selects the replacement policy; nil defaults to LRU.
	Policy Policy
}

// line is one resident cache line's control state. The payload lives in
// the cache's single data backing (see Cache.lineData): keeping the
// struct pointer-free makes the way scan compact — a set's lines share a
// cache line or two — and leaves the garbage collector nothing to trace
// inside the array.
type line struct {
	valid bool
	dirty bool
	tag   uint64
}

// EvictHook observes a victim line at the moment it is displaced, before
// the fill overwrites it. data aliases the array and must not be retained
// or mutated. The energy layer uses it to charge the writeback read-out
// of the exact stored bits.
type EvictHook func(set, way int, data []byte, dirty bool)

// Cache is one level of the hierarchy.
type Cache struct {
	name      string
	geom      sram.Geometry
	policy    Policy
	next      Backend
	lines     []line // lines[set*ways+way]
	data      []byte // data[(set*ways+way)*lineBytes : +lineBytes]
	ways      int
	stats     Stats
	offMask   uint64
	idxMask   uint64
	offShift  uint
	idxShift  uint
	lineBytes int
	onEvict   EvictHook
	// ownPolicy is set when New built the policy itself, so Release may
	// recycle its state; a caller-supplied policy stays the caller's.
	ownPolicy bool

	// hint[set] is the way that last served set — a way predictor for
	// findWay. Tags are unique within a set, so confirming the hinted
	// way's tag is exact: the hint changes which way is examined first,
	// never which way matches.
	hint []int32
}

// SetEvictHook installs the eviction observer (nil clears it).
func (c *Cache) SetEvictHook(h EvictHook) { c.onEvict = h }

// New builds a cache over the given backend.
func New(cfg Config, next Backend) (*Cache, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, fmt.Errorf("cache %q: %w", cfg.Name, err)
	}
	if next == nil {
		return nil, fmt.Errorf("cache %q: backend must not be nil", cfg.Name)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = NewLRU()
	}
	if err := pol.Reset(cfg.Geometry.Sets, cfg.Geometry.Ways); err != nil {
		return nil, fmt.Errorf("cache %q: %w", cfg.Name, err)
	}
	c := &Cache{
		name:      cfg.Name,
		geom:      cfg.Geometry,
		policy:    pol,
		next:      next,
		lineBytes: cfg.Geometry.LineBytes,
		ownPolicy: cfg.Policy == nil,
	}
	c.offShift = uint(cfg.Geometry.OffsetBits())
	c.idxShift = uint(cfg.Geometry.IndexBits())
	c.offMask = uint64(c.lineBytes - 1)
	c.idxMask = uint64(cfg.Geometry.Sets - 1)
	// One flat array each for control state, payload and way hints,
	// drawn from the recycler: a simulation that Releases its caches
	// hands them to the next one of the same shape (core.Compare cells,
	// sweep points), which then skips both the allocation and the GC
	// work of the discarded copy.
	c.ways = cfg.Geometry.Ways
	c.lines = lineBin.Get(cfg.Geometry.Sets * cfg.Geometry.Ways)
	c.data = dataBin.Get(len(c.lines) * c.lineBytes)
	c.hint = int32Bin.Get(cfg.Geometry.Sets)
	return c, nil
}

// Recycled arrays, shared by every cache of the process.
var (
	lineBin  recycle.Bin[line]
	dataBin  recycle.Bin[byte]
	int32Bin recycle.Bin[int32] // way hints and LRU order
)

// Release hands the cache's arrays — and the LRU order of a policy New
// built itself — back to the recycler. The cache is unusable afterwards;
// a second Release does nothing. Stats stay readable.
func (c *Cache) Release() {
	if c.lines == nil {
		return
	}
	if l, ok := c.policy.(*lru); ok && c.ownPolicy {
		l.release()
	}
	lineBin.Put(c.lines)
	dataBin.Put(c.data)
	int32Bin.Put(c.hint)
	c.lines, c.data, c.hint = nil, nil, nil
}

// lineData returns the payload slice of one line within the flat backing.
func (c *Cache) lineData(set, way int) []byte {
	base := (set*c.ways + way) * c.lineBytes
	return c.data[base : base+c.lineBytes : base+c.lineBytes]
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Geometry returns the array organization.
func (c *Cache) Geometry() sram.Geometry { return c.geom }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Set and tag decomposition.
func (c *Cache) setIndex(addr uint64) int { return int((addr >> c.offShift) & c.idxMask) }
func (c *Cache) tagOf(addr uint64) uint64 { return addr >> (c.offShift + c.idxShift) }

// LineAddr returns the line-aligned base of addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ c.offMask }

// addrOf reconstructs the line base address from set and tag.
func (c *Cache) addrOf(set int, tag uint64) uint64 {
	return tag<<(c.offShift+c.idxShift) | uint64(set)<<c.offShift
}

// Result describes what one access did to the array. The encoding layer
// consumes it to maintain per-line state and charge energy.
type Result struct {
	// Hit reports whether the access hit.
	Hit bool
	// Set and Way locate the line that served the access (after any
	// fill).
	Set, Way int
	// LineAddr is the line-aligned base address of the accessed line.
	LineAddr uint64
	// Offset and Size delimit the accessed bytes within the line.
	Offset, Size int
	// Filled reports that a miss brought a new line in.
	Filled bool
	// Evicted reports that the fill displaced a valid line.
	Evicted bool
	// EvictedAddr is the displaced line's base address (valid when
	// Evicted).
	EvictedAddr uint64
	// WroteBack reports that the displaced line was dirty and was pushed
	// to the backend.
	WroteBack bool
}

// Access performs one read or write. For writes, data supplies the bytes
// to store; for reads, data receives the bytes read when non-nil (it must
// then have length size). The access must not cross a line boundary — use
// Split first for unaligned streams.
func (c *Cache) Access(write bool, addr uint64, size int, data []byte) (Result, error) {
	if size <= 0 || size > c.lineBytes {
		return Result{}, fmt.Errorf("cache %s: size %d out of range [1,%d]", c.name, size, c.lineBytes)
	}
	off := int(addr & c.offMask)
	if off+size > c.lineBytes {
		return Result{}, fmt.Errorf("cache %s: access %#x+%d crosses line boundary", c.name, addr, size)
	}
	if data != nil && len(data) != size {
		return Result{}, fmt.Errorf("cache %s: buffer length %d != size %d", c.name, len(data), size)
	}
	if write && data == nil {
		return Result{}, fmt.Errorf("cache %s: write requires data", c.name)
	}

	set := c.setIndex(addr)
	tag := c.tagOf(addr)
	res := Result{Set: set, LineAddr: c.LineAddr(addr), Offset: off, Size: size}

	c.stats.Accesses++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}

	way := c.findWay(set, tag)
	if way >= 0 {
		res.Hit = true
		c.stats.Hits++
		if write {
			c.stats.WriteHits++
		} else {
			c.stats.ReadHits++
		}
	} else {
		c.stats.Misses++
		if write {
			c.stats.WriteMisses++
		} else {
			c.stats.ReadMisses++
		}
		var err error
		way, err = c.fill(set, tag, &res)
		if err != nil {
			return Result{}, err
		}
	}
	res.Way = way

	ln := &c.lines[set*c.ways+way]
	ld := c.lineData(set, way)
	if write {
		copy(ld[off:off+size], data)
		ln.dirty = true
	} else if data != nil {
		copy(data, ld[off:off+size])
	}
	c.hint[set] = int32(way)
	c.policy.OnAccess(set, way)
	return res, nil
}

// AccessHot is the hit-only fast path of Access for batched replay: the
// same validation, stats, data movement and policy touch as Access when
// the access hits in the array, with the Result bookkeeping stripped to
// the coordinates the energy layer consumes. When the access misses,
// fails validation or crosses a line it returns ok=false having mutated
// nothing; the caller then takes the full Access path, which repeats the
// checks and counts the access exactly once.
func (c *Cache) AccessHot(write bool, addr uint64, size int, data []byte) (set, way, off int, lineData []byte, ok bool) {
	if size <= 0 || size > c.lineBytes {
		return 0, 0, 0, nil, false
	}
	off = int(addr & c.offMask)
	if off+size > c.lineBytes {
		return 0, 0, 0, nil, false
	}
	if data != nil && len(data) != size {
		return 0, 0, 0, nil, false
	}
	if write && data == nil {
		return 0, 0, 0, nil, false
	}
	set = c.setIndex(addr)
	tag := c.tagOf(addr)
	way = c.findWay(set, tag)
	if way < 0 {
		return 0, 0, 0, nil, false
	}
	c.stats.Accesses++
	c.stats.Hits++
	ln := &c.lines[set*c.ways+way]
	ld := c.lineData(set, way)
	if write {
		c.stats.Writes++
		c.stats.WriteHits++
		copy(ld[off:off+size], data)
		ln.dirty = true
	} else {
		c.stats.Reads++
		c.stats.ReadHits++
		if data != nil {
			copy(data, ld[off:off+size])
		}
	}
	c.hint[set] = int32(way)
	c.policy.OnAccess(set, way)
	return set, way, off, ld, true
}

// findWay returns the way holding tag in set, or -1. The hinted way —
// whichever way last served this set — is confirmed first, so runs of
// accesses to a hot line skip the scan.
func (c *Cache) findWay(set int, tag uint64) int {
	base := set * c.ways
	ways := c.lines[base : base+c.ways]
	if h := int(c.hint[set]); h < len(ways) {
		if ln := &ways[h]; ln.valid && ln.tag == tag {
			return h
		}
	}
	for w := range ways {
		if ln := &ways[w]; ln.valid && ln.tag == tag {
			return w
		}
	}
	return -1
}

// fill brings the line for (set, tag) into the array, evicting a victim
// if necessary, and annotates res.
func (c *Cache) fill(set int, tag uint64, res *Result) (int, error) {
	way := -1
	for w := 0; w < c.ways; w++ {
		if !c.lines[set*c.ways+w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policy.Victim(set)
		if way < 0 || way >= c.geom.Ways {
			return 0, fmt.Errorf("cache %s: policy %s returned invalid victim %d", c.name, c.policy.Name(), way)
		}
		victim := &c.lines[set*c.ways+way]
		victimData := c.lineData(set, way)
		res.Evicted = true
		res.EvictedAddr = c.addrOf(set, victim.tag)
		c.stats.Evictions++
		if c.onEvict != nil {
			c.onEvict(set, way, victimData, victim.dirty)
		}
		if victim.dirty {
			if err := c.next.WriteLine(res.EvictedAddr, victimData); err != nil {
				return 0, fmt.Errorf("cache %s: writeback %#x: %w", c.name, res.EvictedAddr, err)
			}
			res.WroteBack = true
			c.stats.WriteBacks++
		}
	}
	ln := &c.lines[set*c.ways+way]
	lineAddr := c.addrOf(set, tag)
	if err := c.next.ReadLine(lineAddr, c.lineData(set, way)); err != nil {
		return 0, fmt.Errorf("cache %s: fill %#x: %w", c.name, lineAddr, err)
	}
	ln.valid = true
	ln.dirty = false
	ln.tag = tag
	res.Filled = true
	c.stats.Fills++
	c.policy.OnFill(set, way)
	return way, nil
}

// Line exposes a resident line for the encoding layer: its logical data
// (aliasing the array; callers must not mutate), base address and state.
func (c *Cache) Line(set, way int) (data []byte, addr uint64, valid, dirty bool) {
	if set < 0 || set >= c.geom.Sets || way < 0 || way >= c.geom.Ways {
		panic(fmt.Sprintf("cache %s: Line(%d,%d) out of range", c.name, set, way))
	}
	ln := &c.lines[set*c.ways+way]
	return c.lineData(set, way), c.addrOf(set, ln.tag), ln.valid, ln.dirty
}

// FlushAll writes every dirty line back to the backend and invalidates
// the array. Used at end of simulation so memory holds the final image.
func (c *Cache) FlushAll() error {
	for s := 0; s < c.geom.Sets; s++ {
		for w := 0; w < c.ways; w++ {
			ln := &c.lines[s*c.ways+w]
			if ln.valid && ln.dirty {
				if err := c.next.WriteLine(c.addrOf(s, ln.tag), c.lineData(s, w)); err != nil {
					return err
				}
				c.stats.WriteBacks++
			}
			ln.valid = false
			ln.dirty = false
		}
	}
	return nil
}

// ReadLine implements Backend, letting this cache serve as the next level
// of a smaller cache above it.
func (c *Cache) ReadLine(addr uint64, dst []byte) error {
	if len(dst) > c.lineBytes {
		return fmt.Errorf("cache %s: upper-level line %d exceeds mine %d", c.name, len(dst), c.lineBytes)
	}
	_, err := c.Access(false, addr, len(dst), dst)
	return err
}

// WriteLine implements Backend.
func (c *Cache) WriteLine(addr uint64, src []byte) error {
	if len(src) > c.lineBytes {
		return fmt.Errorf("cache %s: upper-level line %d exceeds mine %d", c.name, len(src), c.lineBytes)
	}
	_, err := c.Access(true, addr, len(src), src)
	return err
}

// SameLine reports whether the access fits entirely inside one line of
// the given size, i.e. Split would yield the access unchanged.
func SameLine(a trace.Access, lineBytes int) bool {
	return a.Addr&^uint64(lineBytes-1) == (a.Addr+uint64(a.Size)-1)&^uint64(lineBytes-1)
}

// SplitEach breaks an access into line-aligned pieces and feeds them to
// fn in address order, stopping at the first error. Write payloads are
// sliced accordingly (aliasing a.Data). Unlike Split it allocates
// nothing: the overwhelmingly common single-line access — every access
// of the bundled workloads — is handed to fn as-is, which keeps it off
// the simulate hot path's heap profile.
func SplitEach(a trace.Access, lineBytes int, fn func(trace.Access) error) error {
	if SameLine(a, lineBytes) {
		return fn(a)
	}
	remaining := a.Size
	addr := a.Addr
	consumed := 0
	for remaining > 0 {
		lineEnd := (addr &^ uint64(lineBytes-1)) + uint64(lineBytes)
		n := int(lineEnd - addr)
		if n > remaining {
			n = remaining
		}
		piece := trace.Access{Op: a.Op, Addr: addr, Size: n}
		if a.Op == trace.Write {
			piece.Data = a.Data[consumed : consumed+n]
		}
		if err := fn(piece); err != nil {
			return err
		}
		addr += uint64(n)
		consumed += n
		remaining -= n
	}
	return nil
}

// Split breaks an access into line-aligned pieces for this cache's
// geometry, appending them to buf (which may be nil) and returning the
// result. Write payloads are sliced accordingly. Passing a scratch
// buffer with capacity for the pieces makes Split allocation-free; hot
// paths should prefer SplitEach, which needs no buffer at all.
func Split(a trace.Access, lineBytes int, buf []trace.Access) []trace.Access {
	out := buf[:0]
	SplitEach(a, lineBytes, func(piece trace.Access) error {
		out = append(out, piece)
		return nil
	})
	return out
}
