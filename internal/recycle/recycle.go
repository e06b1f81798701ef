// Package recycle keeps a small stock of the large arrays short-lived
// simulations discard — cache payloads and tags, replacement order,
// per-line encoding state — so the next simulation that needs an array
// of the same type and length takes it from the stock instead of
// allocating and clearing a fresh one.
//
// The stock is bounded: it holds at most Cap bytes across every bin,
// and Put drops whatever would exceed that for the garbage collector,
// so the recycler never raises the live heap by more than Cap. Every
// slice is cleared when it is put back, so Get returns exactly what
// make would: zeroed memory of the requested length. Bins are safe for
// concurrent use.
package recycle

import (
	"sync"
	"unsafe"
)

// Cap bounds the bytes held across all bins: about five default
// hierarchies (~0.7 MiB of arrays each), enough for a worker pool's
// concurrent simulations to hand their arrays on to the next ones.
const Cap = 4 << 20

// Stats is the recycler's accounting since process start.
type Stats struct {
	// Hits and Misses count Get calls served from the stock and by a
	// fresh allocation.
	Hits, Misses uint64
	// Drops counts Put calls refused because the stock was full.
	Drops uint64
	// Held is the number of bytes currently in stock.
	Held int
}

var (
	mu    sync.Mutex // guards stats, bins and every bin's free lists
	stats Stats
	// bins lists every bin that has held a slice, for Drain.
	bins []interface{ drain() int }
)

// ReadStats returns a snapshot of the accounting.
func ReadStats() Stats {
	mu.Lock()
	defer mu.Unlock()
	return stats
}

// Drain empties the stock, leaving every slice to the garbage
// collector. Tests use it to build simulations from freshly allocated
// arrays; Get and Put keep working afterwards.
func Drain() {
	mu.Lock()
	defer mu.Unlock()
	for _, b := range bins {
		stats.Held -= b.drain()
	}
}

// Bin recycles slices of one element type, keyed by length. The zero
// value is ready to use.
type Bin[T any] struct {
	free map[int][][]T
}

func size[T any](s []T) int {
	var zero T
	return len(s) * int(unsafe.Sizeof(zero))
}

// Get returns a zeroed slice of length and capacity n, from the stock
// when it holds one of that length.
func (b *Bin[T]) Get(n int) []T {
	mu.Lock()
	if l := b.free[n]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		b.free[n] = l[:len(l)-1]
		stats.Hits++
		stats.Held -= size(s)
		mu.Unlock()
		return s
	}
	stats.Misses++
	mu.Unlock()
	return make([]T, n)
}

// Put hands a slice obtained from Get back to the stock. The caller
// must not use it afterwards. A slice that would take the stock past
// Cap is dropped instead.
func (b *Bin[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	s = s[:len(s):len(s)]
	n := size(s)
	mu.Lock()
	if stats.Held+n > Cap {
		stats.Drops++
		mu.Unlock()
		return
	}
	stats.Held += n
	mu.Unlock()
	// Clear outside the lock: the bytes are reserved, and no Get can see
	// the slice before it is appended below.
	clear(s)
	mu.Lock()
	if b.free == nil {
		b.free = map[int][][]T{}
		bins = append(bins, b)
	}
	b.free[len(s)] = append(b.free[len(s)], s)
	mu.Unlock()
}

// drain drops the bin's free lists and returns the bytes they held; mu
// is held.
func (b *Bin[T]) drain() int {
	n := 0
	for _, l := range b.free {
		for _, s := range l {
			n += size(s)
		}
	}
	clear(b.free)
	return n
}
