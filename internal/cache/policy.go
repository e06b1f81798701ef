package cache

import (
	"fmt"
	"math/rand"
)

// Policy selects replacement victims. Implementations are per-cache and
// not safe for concurrent use.
type Policy interface {
	// Name identifies the policy in stats and configs.
	Name() string
	// Reset sizes the policy's state for the given organization.
	Reset(sets, ways int) error
	// OnAccess notes a hit or post-fill touch of (set, way).
	OnAccess(set, way int)
	// OnFill notes that (set, way) was just filled.
	OnFill(set, way int)
	// Victim picks the way to evict from a full set.
	Victim(set int) int
}

func checkGeometry(sets, ways int) error {
	if sets <= 0 || ways <= 0 {
		return fmt.Errorf("cache: policy needs positive sets/ways, got %d/%d", sets, ways)
	}
	return nil
}

// lru is true least-recently-used: each set keeps its ways ordered from
// MRU to LRU.
type lru struct {
	order []int32 // order[set*ways : (set+1)*ways] lists set's ways MRU-first
	ways  int
}

// NewLRU returns a least-recently-used policy.
func NewLRU() Policy { return &lru{} }

func (l *lru) Name() string { return "lru" }

func (l *lru) Reset(sets, ways int) error {
	if err := checkGeometry(sets, ways); err != nil {
		return err
	}
	l.order = int32Bin.Get(sets * ways)
	l.ways = ways
	for i := range l.order {
		l.order[i] = int32(i % ways)
	}
	return nil
}

// release hands the order array back to the recycler (see Cache.Release).
func (l *lru) release() {
	int32Bin.Put(l.order)
	l.order = nil
}

func (l *lru) touch(set, way int) {
	ord := l.order[set*l.ways : (set+1)*l.ways]
	w32 := int32(way)
	if ord[0] == w32 {
		return // already MRU: repeated hits to a hot line stay free
	}
	for i, w := range ord {
		if w == w32 {
			copy(ord[1:i+1], ord[:i])
			ord[0] = w32
			return
		}
	}
}

func (l *lru) OnAccess(set, way int) { l.touch(set, way) }
func (l *lru) OnFill(set, way int)   { l.touch(set, way) }
func (l *lru) Victim(set int) int {
	return int(l.order[set*l.ways+l.ways-1])
}

// treePLRU is the classic binary-tree pseudo-LRU used by real L1 designs.
// Ways must be a power of two; Reset rejects other organizations.
type treePLRU struct {
	bits [][]bool // bits[set] is the tree, 1-indexed conceptually
	ways int
}

// NewTreePLRU returns a tree pseudo-LRU policy.
func NewTreePLRU() Policy { return &treePLRU{} }

func (t *treePLRU) Name() string { return "plru" }

func (t *treePLRU) Reset(sets, ways int) error {
	if err := checkGeometry(sets, ways); err != nil {
		return err
	}
	if ways&(ways-1) != 0 {
		return fmt.Errorf("cache: tree PLRU needs power-of-two ways, got %d", ways)
	}
	t.ways = ways
	t.bits = make([][]bool, sets)
	for s := range t.bits {
		t.bits[s] = make([]bool, ways) // node 1..ways-1 used; index 0 spare
	}
	return nil
}

// touch records on every tree node along the path to `way` which side was
// used last; the victim walk then descends the opposite sides.
func (t *treePLRU) touch(set, way int) {
	if t.ways == 1 {
		return
	}
	node := 1
	span := t.ways
	for span > 1 {
		span /= 2
		right := way%(span*2) >= span
		t.bits[set][node] = right
		node = node*2 + boolToInt(right)
	}
}

func (t *treePLRU) OnAccess(set, way int) { t.touch(set, way) }
func (t *treePLRU) OnFill(set, way int)   { t.touch(set, way) }

func (t *treePLRU) Victim(set int) int {
	if t.ways == 1 {
		return 0
	}
	node := 1
	way := 0
	span := t.ways
	for span > 1 {
		span /= 2
		goRight := !t.bits[set][node]
		if goRight {
			way += span
		}
		node = node*2 + boolToInt(goRight)
	}
	return way
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fifoPolicy evicts in fill order, ignoring hits.
type fifoPolicy struct {
	next []int
	ways int
}

// NewFIFO returns a first-in-first-out policy.
func NewFIFO() Policy { return &fifoPolicy{} }

func (f *fifoPolicy) Name() string { return "fifo" }

func (f *fifoPolicy) Reset(sets, ways int) error {
	if err := checkGeometry(sets, ways); err != nil {
		return err
	}
	f.next = make([]int, sets)
	f.ways = ways
	return nil
}

func (f *fifoPolicy) OnAccess(int, int) {}
func (f *fifoPolicy) OnFill(set, way int) {
	// Advance the pointer only when the fill consumed the slot it points
	// at (cold fills walk the ways in order anyway).
	if f.next[set] == way {
		f.next[set] = (way + 1) % f.ways
	}
}
func (f *fifoPolicy) Victim(set int) int { return f.next[set] }

// randomPolicy picks a uniformly random victim from a seeded source, so
// simulations stay reproducible.
type randomPolicy struct {
	rng  *rand.Rand
	seed int64
	ways int
}

// NewRandom returns a seeded random-replacement policy.
func NewRandom(seed int64) Policy { return &randomPolicy{seed: seed} }

func (r *randomPolicy) Name() string { return "random" }

func (r *randomPolicy) Reset(sets, ways int) error {
	if err := checkGeometry(sets, ways); err != nil {
		return err
	}
	r.rng = rand.New(rand.NewSource(r.seed))
	r.ways = ways
	return nil
}

func (r *randomPolicy) OnAccess(int, int) {}
func (r *randomPolicy) OnFill(int, int)   {}
func (r *randomPolicy) Victim(int) int    { return r.rng.Intn(r.ways) }

// NewPolicy builds a policy by name: "lru", "plru", "fifo" or "random".
func NewPolicy(name string, seed int64) (Policy, error) {
	switch name {
	case "", "lru":
		return NewLRU(), nil
	case "plru":
		return NewTreePLRU(), nil
	case "fifo":
		return NewFIFO(), nil
	case "random":
		return NewRandom(seed), nil
	default:
		return nil, fmt.Errorf("cache: unknown replacement policy %q", name)
	}
}
