package workload

import (
	"math/rand"
	"sync"

	"repro/internal/trace"
)

// Base addresses for the kernels' data regions, well away from the ISA
// programs' code/data.
const (
	baseA = 0x100000
	baseB = 0x110000
	baseC = 0x120000
	baseD = 0x130000
)

func le32(v uint32) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}

// emitter accumulates a kernel's reference stream. A kernel whose loop
// bounds fix the stream length sizes it exactly up front (sized); one
// whose length depends on its data builds in a recycled scratch buffer
// (scratch) and copies the stream out once at its final length. Either
// way the instance's Accesses has cap == len and the build pays no
// growth copies.
type emitter struct {
	accs []trace.Access
	// buf is the pooled scratch buffer accs was taken from; nil for a
	// sized emitter.
	buf *[]trace.Access
}

// scratchPool holds the scratch buffers of data-dependent kernels. A
// sync.Pool rather than package recycle's capped stock: a buffer is
// only needed while a build runs, and the pool lets the collector take
// idle ones.
var scratchPool = sync.Pool{New: func() any { return new([]trace.Access) }}

// sized returns an emitter for a stream of exactly n accesses.
func sized(n int) emitter { return emitter{accs: make([]trace.Access, 0, n)} }

// scratch returns an emitter building in a pooled buffer.
func scratch() emitter {
	buf := scratchPool.Get().(*[]trace.Access)
	return emitter{accs: (*buf)[:0], buf: buf}
}

// stream returns the emitted accesses at their exact length. A scratch
// emitter copies them out and returns its buffer to the pool, cleared
// so it pins no write payloads.
func (e *emitter) stream() []trace.Access {
	if e.buf == nil {
		return e.accs
	}
	out := make([]trace.Access, len(e.accs))
	copy(out, e.accs)
	clear(e.accs)
	*e.buf = e.accs[:0]
	scratchPool.Put(e.buf)
	e.accs, e.buf = nil, nil
	return out
}

func (e *emitter) read(addr uint64, size int) {
	e.accs = append(e.accs, trace.Access{Op: trace.Read, Addr: addr, Size: size})
}

func (e *emitter) write32(addr uint64, v uint32) {
	e.accs = append(e.accs, trace.Access{Op: trace.Write, Addr: addr, Size: 4, Data: le32(v)})
}

func (e *emitter) write(addr uint64, data []byte) {
	e.accs = append(e.accs, trace.Access{Op: trace.Write, Addr: addr, Size: len(data), Data: data})
}

// MatMul is a 48x48 int32 matrix multiply: C = A*B with row-major A, B.
// Dominated by reads of zero-heavy integer matrices.
func MatMul(seed int64) *Instance {
	const n = 48
	rng := rand.New(rand.NewSource(seed))
	a := make([]int32, n*n)
	b := make([]int32, n*n)
	initA := fillRegion(baseA, n*n, func() []byte { return smallInt32(rng) })
	initB := fillRegion(baseB, n*n, func() []byte { return smallInt32(rng) })
	for i := 0; i < n*n; i++ {
		a[i] = int32(uint32(initA.Data[4*i]) | uint32(initA.Data[4*i+1])<<8 |
			uint32(initA.Data[4*i+2])<<16 | uint32(initA.Data[4*i+3])<<24)
		b[i] = int32(uint32(initB.Data[4*i]) | uint32(initB.Data[4*i+1])<<8 |
			uint32(initB.Data[4*i+2])<<16 | uint32(initB.Data[4*i+3])<<24)
	}

	e := sized(n * n * (2*n + 1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for k := 0; k < n; k++ {
				e.read(baseA+uint64(4*(i*n+k)), 4)
				e.read(baseB+uint64(4*(k*n+j)), 4)
				acc += a[i*n+k] * b[k*n+j]
			}
			e.write32(baseC+uint64(4*(i*n+j)), uint32(acc))
		}
	}
	return &Instance{Name: "mm", Init: []Region{initA, initB}, Accesses: e.stream()}
}

// FIR runs a 32-tap filter over 3000 int32 samples.
func FIR(seed int64) *Instance {
	const taps, outs = 32, 3000
	rng := rand.New(rand.NewSource(seed))
	initX := fillRegion(baseA, outs+taps, func() []byte { return smallInt32(rng) })
	initH := fillRegion(baseB, taps, func() []byte { return smallInt32(rng) })
	word := func(r Region, i int) int32 {
		return int32(uint32(r.Data[4*i]) | uint32(r.Data[4*i+1])<<8 |
			uint32(r.Data[4*i+2])<<16 | uint32(r.Data[4*i+3])<<24)
	}

	e := sized(outs * (2*taps + 1))
	for n := 0; n < outs; n++ {
		var acc int32
		for k := 0; k < taps; k++ {
			e.read(baseA+uint64(4*(n+k)), 4)
			e.read(baseB+uint64(4*k), 4)
			acc += word(initX, n+k) * word(initH, k)
		}
		e.write32(baseC+uint64(4*n), uint32(acc))
	}
	return &Instance{Name: "fir", Init: []Region{initX, initH}, Accesses: e.stream()}
}

// BFS traverses a random sparse graph in CSR form: 2048 vertices, average
// degree 8. Index data is zero-heavy; the visited map and output queue
// take the writes.
func BFS(seed int64) *Instance {
	const v, deg = 2048, 8
	rng := rand.New(rand.NewSource(seed))

	// Build the CSR arrays functionally.
	offsets := make([]uint32, v+1)
	var edges []uint32
	for i := 0; i < v; i++ {
		offsets[i] = uint32(len(edges))
		d := 1 + rng.Intn(2*deg)
		for j := 0; j < d; j++ {
			edges = append(edges, uint32(rng.Intn(v)))
		}
	}
	offsets[v] = uint32(len(edges))

	offRegion := Region{Addr: baseA}
	for _, o := range offsets {
		offRegion.Data = append(offRegion.Data, le32(o)...)
	}
	edgeRegion := Region{Addr: baseB}
	for _, ed := range edges {
		edgeRegion.Data = append(edgeRegion.Data, le32(ed)...)
	}

	// BFS from vertex 0, emitting the reference stream.
	e := scratch()
	visited := make([]bool, v)
	queue := []uint32{0}
	visited[0] = true
	e.write32(baseD, 0) // enqueue root
	qHead := 0
	outCount := 1
	for qHead < len(queue) {
		u := queue[qHead]
		e.read(baseD+uint64(4*qHead), 4) // dequeue
		qHead++
		e.read(baseA+uint64(4*u), 4) // offsets[u]
		e.read(baseA+uint64(4*(u+1)), 4)
		for idx := offsets[u]; idx < offsets[u+1]; idx++ {
			e.read(baseB+uint64(4*idx), 4) // edge target
			w := edges[idx]
			e.read(baseC+uint64(w), 1) // visited[w]
			if !visited[w] {
				visited[w] = true
				e.write(baseC+uint64(w), []byte{1})
				e.write32(baseD+uint64(4*outCount), w)
				queue = append(queue, w)
				outCount++
			}
		}
	}
	return &Instance{Name: "bfs", Init: []Region{offRegion, edgeRegion}, Accesses: e.stream()}
}

// HashJoin builds a 4096-bucket hash table from 4096 dense random keys,
// then probes it with 12288 lookups.
func HashJoin(seed int64) *Instance {
	const buckets, builds, probes = 4096, 4096, 12288
	rng := rand.New(rand.NewSource(seed))

	buildKeys := fillRegion(baseA, builds, func() []byte {
		return le32(rng.Uint32()) // hashed keys are dense
	})
	key := func(i int) uint32 {
		return uint32(buildKeys.Data[4*i]) | uint32(buildKeys.Data[4*i+1])<<8 |
			uint32(buildKeys.Data[4*i+2])<<16 | uint32(buildKeys.Data[4*i+3])<<24
	}

	e := sized(3*builds + 2*probes)
	for i := 0; i < builds; i++ {
		e.read(baseA+uint64(4*i), 4)
		k := key(i)
		h := (k * 0x9E3779B1) % buckets
		e.write32(baseB+uint64(8*h), k)           // bucket key
		e.write32(baseB+uint64(8*h+4), uint32(i)) // payload = row id
	}
	for i := 0; i < probes; i++ {
		k := key(rng.Intn(builds))
		h := (k * 0x9E3779B1) % buckets
		e.read(baseB+uint64(8*h), 4)
		e.read(baseB+uint64(8*h+4), 4)
	}
	return &Instance{Name: "hashjoin", Init: []Region{buildKeys}, Accesses: e.stream()}
}

// Sort runs 8 odd-even transposition passes over 4096 small ints. The
// input is mostly sorted (as real sort inputs tend to be after the first
// few passes of any algorithm), so swap writes are sparse and lines stay
// read-dominated with stable bit statistics.
func Sort(seed int64) *Instance {
	const n, passes = 4096, 8
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i)
	}
	for s := 0; s < n/8; s++ {
		i, j := rng.Intn(n), rng.Intn(n)
		vals[i], vals[j] = vals[j], vals[i]
	}
	init := Region{Addr: baseA}
	for _, v := range vals {
		init.Data = append(init.Data, le32(uint32(v))...)
	}

	e := scratch()
	for p := 0; p < passes; p++ {
		for i := p % 2; i+1 < n; i += 2 {
			e.read(baseA+uint64(4*i), 4)
			e.read(baseA+uint64(4*(i+1)), 4)
			if vals[i] > vals[i+1] {
				vals[i], vals[i+1] = vals[i+1], vals[i]
				e.write32(baseA+uint64(4*i), uint32(vals[i]))
				e.write32(baseA+uint64(4*(i+1)), uint32(vals[i+1]))
			}
		}
	}
	return &Instance{Name: "sort", Init: []Region{init}, Accesses: e.stream()}
}

// Stream runs STREAM-style copy, scale and triad passes over three
// 8192-element float32 vectors with dense FP bit patterns. The 96 KiB
// footprint exceeds L1, so lines stream through with short residency, as
// the real benchmark's do.
func Stream(seed int64) *Instance {
	const n = 8192
	rng := rand.New(rand.NewSource(seed))
	initA := fillRegion(baseA, n, func() []byte { return float32Bits(rng) })
	initB := fillRegion(baseB, n, func() []byte { return float32Bits(rng) })

	e := sized(7 * n)
	// copy: c = a
	for i := 0; i < n; i++ {
		e.read(baseA+uint64(4*i), 4)
		e.write(baseC+uint64(4*i), initA.Data[4*i:4*i+4])
	}
	// scale: b = 3*c (bit pattern approximated by a fresh FP value)
	for i := 0; i < n; i++ {
		e.read(baseC+uint64(4*i), 4)
		e.write(baseB+uint64(4*i), float32Bits(rng))
	}
	// triad: c = a + 2*b
	for i := 0; i < n; i++ {
		e.read(baseA+uint64(4*i), 4)
		e.read(baseB+uint64(4*i), 4)
		e.write(baseC+uint64(4*i), float32Bits(rng))
	}
	return &Instance{Name: "stream", Init: []Region{initA, initB}, Accesses: e.stream()}
}

// Stack models call-frame traffic: frames of 16 small words are pushed,
// the "function body" interleaves local reads with occasional local
// updates, and pops restore a few saved registers — the interleaved mix a
// real call stack produces, rather than pure write/read phases.
func Stack(seed int64) *Instance {
	const rounds, frame = 1024, 16
	rng := rand.New(rand.NewSource(seed))
	e := scratch()
	for r := 0; r < rounds; r++ {
		depth := 1 + rng.Intn(4)
		for d := 0; d < depth; d++ {
			base := baseA + uint64(256*d)
			// Prologue: spill the frame.
			for w := 0; w < frame; w++ {
				e.write32(base+uint64(4*w), uint32(rng.Intn(512)))
			}
			// Body: read locals, occasionally update one.
			for b := 0; b < 24; b++ {
				slot := base + uint64(4*rng.Intn(frame))
				if rng.Intn(5) == 0 {
					e.write32(slot, uint32(rng.Intn(512)))
				} else {
					e.read(slot, 4)
				}
				// Parent-frame access (closure/upvalue reads).
				if d > 0 && rng.Intn(8) == 0 {
					e.read(baseA+uint64(256*(d-1))+uint64(4*rng.Intn(frame)), 4)
				}
			}
			// Epilogue: restore saved registers.
			for w := 0; w < 4; w++ {
				e.read(base+uint64(4*w), 4)
			}
		}
	}
	return &Instance{Name: "stack", Accesses: e.stream()}
}

// List traverses a 256-node linked list whose 64-byte nodes have a
// heterogeneous layout — a pointer word (sparse), a zeroed metadata word,
// and six dense payload words. Per-partition bit densities straddle the
// inversion threshold, which is exactly the case Figure 2's partitioned
// encoding targets over whole-line inversion.
func List(seed int64) *Instance {
	const nodes, hops = 256, 8192
	rng := rand.New(rand.NewSource(seed))

	next := make([]int, nodes)
	for i := range next {
		next[i] = (i*29 + 1) % nodes // full permutation cycle
	}
	region := Region{Addr: baseA, Data: make([]byte, 0, nodes*64)}
	for i := 0; i < nodes; i++ {
		node := make([]byte, 0, 64)
		ptr := uint64(baseA) + uint64(next[i]*64)
		node = append(node, byte(ptr), byte(ptr>>8), byte(ptr>>16), byte(ptr>>24),
			byte(ptr>>32), byte(ptr>>40), byte(ptr>>48), byte(ptr>>56))
		node = append(node, make([]byte, 8)...) // metadata word: zeros
		for w := 0; w < 6; w++ {
			node = append(node, densityWord(rng, 0.7)...) // dense payload
		}
		region.Data = append(region.Data, node...)
	}

	e := scratch()
	idx := 0
	for h := 0; h < hops; h++ {
		node := uint64(baseA) + uint64(idx*64)
		e.read(node, 8)    // next pointer
		e.read(node+8, 8)  // metadata
		e.read(node+16, 8) // two payload words
		e.read(node+40, 8)
		if rng.Intn(20) == 0 {
			e.write(node+8, densityWord(rng, 0.05)) // mark visited: near-zero word
		}
		idx = next[idx]
	}
	return &Instance{Name: "list", Init: []Region{region}, Accesses: e.stream()}
}

// SpMV multiplies a 2048-row CSR sparse matrix (~8 nonzeros per row) by a
// dense vector. The stream mixes regions of very different bit density —
// zero-heavy row pointers and column indices against dense FP values —
// under a read-dominated op mix, the shape of real scientific kernels.
func SpMV(seed int64) *Instance {
	const rows, avgNNZ = 2048, 8
	rng := rand.New(rand.NewSource(seed))

	rowPtr := make([]uint32, rows+1)
	var colIdx []uint32
	for r := 0; r < rows; r++ {
		rowPtr[r] = uint32(len(colIdx))
		n := 1 + rng.Intn(2*avgNNZ)
		for i := 0; i < n; i++ {
			colIdx = append(colIdx, uint32(rng.Intn(rows)))
		}
	}
	rowPtr[rows] = uint32(len(colIdx))

	ptrRegion := Region{Addr: baseA}
	for _, v := range rowPtr {
		ptrRegion.Data = append(ptrRegion.Data, le32(v)...)
	}
	idxRegion := Region{Addr: baseB}
	valRegion := Region{Addr: baseC}
	for _, c := range colIdx {
		idxRegion.Data = append(idxRegion.Data, le32(c)...)
		valRegion.Data = append(valRegion.Data, float32Bits(rng)...)
	}
	xRegion := fillRegion(baseD, rows, func() []byte { return float32Bits(rng) })
	const baseY = baseD + 0x10000

	e := sized(3*rows + 3*len(colIdx))
	for r := 0; r < rows; r++ {
		e.read(baseA+uint64(4*r), 4) // rowPtr[r]
		e.read(baseA+uint64(4*(r+1)), 4)
		for i := rowPtr[r]; i < rowPtr[r+1]; i++ {
			e.read(baseB+uint64(4*i), 4)              // column index
			e.read(baseC+uint64(4*i), 4)              // matrix value
			e.read(baseD+uint64(4*int(colIdx[i])), 4) // x[col]
		}
		e.write(baseY+uint64(4*r), float32Bits(rng)) // y[r]
	}
	return &Instance{
		Name:     "spmv",
		Init:     []Region{ptrRegion, idxRegion, valRegion, xRegion},
		Accesses: e.stream(),
	}
}

// Histogram counts 24576 input bytes into 256 hot uint32 counters via
// read-modify-write, the canonical zero-heavy write-intensive kernel.
func Histogram(seed int64) *Instance {
	const n = 24576
	rng := rand.New(rand.NewSource(seed))
	input := Region{Addr: baseA, Data: make([]byte, n)}
	for i := range input.Data {
		// Skewed byte distribution so some counters get hot.
		input.Data[i] = byte(rng.ExpFloat64() * 24)
	}

	e := sized(3 * n)
	counters := make([]uint32, 256)
	for i := 0; i < n; i++ {
		e.read(baseA+uint64(i), 1)
		b := input.Data[i]
		e.read(baseB+uint64(4*int(b)), 4)
		counters[b]++
		e.write32(baseB+uint64(4*int(b)), counters[b])
	}
	return &Instance{Name: "hist", Init: []Region{input}, Accesses: e.stream()}
}
