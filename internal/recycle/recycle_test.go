package recycle

import (
	"sync"
	"testing"
)

// TestGetPutRoundTrip checks that a put slice comes back cleared, from
// the stock, only for its own length.
func TestGetPutRoundTrip(t *testing.T) {
	Drain()
	var b Bin[uint64]
	s := b.Get(100)
	if len(s) != 100 || cap(s) != 100 {
		t.Fatalf("Get(100): len %d cap %d", len(s), cap(s))
	}
	for i := range s {
		s[i] = uint64(i) + 1
	}
	b.Put(s)
	if got := ReadStats().Held; got != 800 {
		t.Errorf("held %d bytes after one Put, want 800", got)
	}
	if other := b.Get(99); &other[0] == &s[0] {
		t.Error("Get(99) reused a 100-element slice")
	}
	before := ReadStats()
	r := b.Get(100)
	if &r[0] != &s[0] {
		t.Fatal("Get(100) did not reuse the put slice")
	}
	for i, v := range r {
		if v != 0 {
			t.Fatalf("recycled slice not cleared: r[%d] = %d", i, v)
		}
	}
	after := ReadStats()
	if after.Hits != before.Hits+1 || after.Held != 0 {
		t.Errorf("stats after a hit: %+v (before %+v)", after, before)
	}
}

// TestCapBoundsTheStock checks that Put refuses what would take the
// stock past Cap, and that Drain empties it.
func TestCapBoundsTheStock(t *testing.T) {
	Drain()
	var b Bin[byte]
	const chunk = Cap / 4
	for i := 0; i < 6; i++ {
		b.Put(make([]byte, chunk))
	}
	st := ReadStats()
	if st.Held != Cap {
		t.Errorf("held %d bytes, want exactly Cap %d", st.Held, Cap)
	}
	b.Put(make([]byte, 1))
	if ReadStats().Drops != st.Drops+1 {
		t.Error("a Put past Cap was not dropped")
	}
	Drain()
	if held := ReadStats().Held; held != 0 {
		t.Errorf("held %d bytes after Drain", held)
	}
	before := ReadStats().Misses
	b.Get(chunk)
	if ReadStats().Misses != before+1 {
		t.Error("Get after Drain was served from the stock")
	}
}

// TestConcurrentBins hammers two bins from several goroutines; run
// under -race it checks the locking, and every Get must see zeroed
// memory however the slices moved between goroutines.
func TestConcurrentBins(t *testing.T) {
	Drain()
	var ints Bin[int]
	var bytes Bin[byte]
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 64 << (i % 4)
				s := ints.Get(n)
				d := bytes.Get(n * 8)
				for j := range s {
					if s[j] != 0 {
						errs <- "int slice not cleared"
						return
					}
					s[j] = g + 1
				}
				for j := range d {
					if d[j] != 0 {
						errs <- "byte slice not cleared"
						return
					}
					d[j] = byte(g + 1)
				}
				ints.Put(s)
				bytes.Put(d)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := ReadStats(); st.Held > Cap || st.Hits == 0 {
		t.Errorf("stats after the run: %+v", st)
	}
}
