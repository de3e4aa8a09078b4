// Package mem provides the simulated guest address space used by all
// workloads.
//
// Workload kernels perform their real computation on ordinary Go slices,
// but every load and store goes through a typed accessor (Float64s.At,
// Int32s.Set, ...) that also reports the access — with a 64-bit guest
// address — to a Recorder. The co-simulation layers (SoftSDV, Dragonhead)
// consume that stream. This way the trace reflects the genuine data
// layout and reference order of the algorithm rather than a statistical
// approximation.
//
// Address space layout: each Space hands out arenas; each arena is a
// contiguous guest address range carved by a bump allocator. Arenas are
// aligned to 1 MiB so that per-thread private heaps land in disjoint
// address ranges, mirroring a real threaded allocator.
package mem

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"
)

// Addr is a 64-bit guest physical address.
type Addr uint64

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Load is a memory read.
	Load Kind = iota
	// Store is a memory write.
	Store
)

// String returns "load" or "store".
func (k Kind) String() string {
	if k == Load {
		return "load"
	}
	return "store"
}

// Recorder receives every memory access performed through the typed
// accessors. Implementations must be cheap: they are invoked on the hot
// path of every simulated load and store.
type Recorder interface {
	// Access reports one memory reference of size bytes at addr.
	Access(addr Addr, size uint8, kind Kind)
	// Exec reports n non-memory instructions executed between accesses.
	Exec(n uint64)
}

// NopRecorder discards all events. Useful for running a kernel natively
// (e.g. to validate algorithmic results without simulation overhead).
type NopRecorder struct{}

// Access implements Recorder.
func (NopRecorder) Access(Addr, uint8, Kind) {}

// Exec implements Recorder.
func (NopRecorder) Exec(uint64) {}

// CountingRecorder tallies accesses; used in tests.
type CountingRecorder struct {
	Loads  uint64
	Stores uint64
	Execs  uint64
	Bytes  uint64
}

// Access implements Recorder.
func (c *CountingRecorder) Access(_ Addr, size uint8, kind Kind) {
	if kind == Load {
		c.Loads++
	} else {
		c.Stores++
	}
	c.Bytes += uint64(size)
}

// Exec implements Recorder.
func (c *CountingRecorder) Exec(n uint64) { c.Execs += n }

// arenaAlign is the alignment of every arena base (1 MiB).
const arenaAlign = 1 << 20

// spaceBase is the base of the first arena; chosen non-zero so that
// address 0 is never valid (helps catch uninitialized-buffer bugs).
const spaceBase = 1 << 30

// Space is a simulated guest address space. It is safe for concurrent
// arena creation; individual arenas are not safe for concurrent
// allocation (each simulated thread should own its private arena).
type Space struct {
	mu     sync.Mutex
	next   Addr
	arenas []*Arena
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{next: spaceBase}
}

// NewArena reserves capacity bytes of guest address range under the given
// label. The label appears in the address-map dump and is purely
// diagnostic.
//
// Arena bases are staggered by a per-arena color offset. Without it,
// identical per-thread data structures would land at identical
// cache-set offsets (all arenas being 1 MiB-aligned) and N same-offset
// streams would conflict pathologically in an N/2-way cache — an
// artifact a real machine never sees because the OS maps physical pages
// quasi-randomly.
func (s *Space) NewArena(label string, capacity uint64) *Arena {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Color: a line-aligned pseudo-random offset below 1 MiB.
	color := Addr(uint64(len(s.arenas))*147573) % arenaAlign &^ 63
	base := s.next + color
	span := (Addr(capacity) + color + arenaAlign - 1) &^ (arenaAlign - 1)
	if span == 0 {
		span = arenaAlign
	}
	s.next += span
	a := &Arena{label: label, base: base, limit: base + Addr(capacity)}
	a.next = base
	s.arenas = append(s.arenas, a)
	return a
}

// Arenas returns all arenas in creation order.
func (s *Space) Arenas() []*Arena {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Arena, len(s.arenas))
	copy(out, s.arenas)
	return out
}

// Footprint returns the total allocated (not reserved) bytes across all
// arenas.
func (s *Space) Footprint() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, a := range s.arenas {
		total += a.Used()
	}
	return total
}

// Map returns a human-readable address map, sorted by base address.
func (s *Space) Map() string {
	arenas := s.Arenas()
	sort.Slice(arenas, func(i, j int) bool { return arenas[i].base < arenas[j].base })
	out := ""
	for _, a := range arenas {
		out += fmt.Sprintf("%#012x..%#012x  %8.2f MiB  %s\n",
			uint64(a.base), uint64(a.limit), float64(a.Used())/(1<<20), a.label)
	}
	return out
}

// Arena is a contiguous guest address range with a bump allocator.
type Arena struct {
	label string
	base  Addr
	limit Addr
	next  Addr
}

// Label returns the diagnostic label the arena was created with.
func (a *Arena) Label() string { return a.label }

// Base returns the first address of the arena.
func (a *Arena) Base() Addr { return a.base }

// Used returns the number of bytes allocated so far.
func (a *Arena) Used() uint64 { return uint64(a.next - a.base) }

// Cap returns the reserved capacity in bytes.
func (a *Arena) Cap() uint64 { return uint64(a.limit - a.base) }

// alloc reserves size bytes aligned to align and returns the base
// address. It panics if the arena is exhausted: workload configurations
// size their arenas up front, so exhaustion is a programming error, not a
// runtime condition.
func (a *Arena) alloc(size uint64, align uint64) Addr {
	if align == 0 {
		align = 1
	}
	p := (uint64(a.next) + align - 1) &^ (align - 1)
	if Addr(p)+Addr(size) > a.limit {
		panic(fmt.Sprintf("mem: arena %q exhausted: need %d bytes, have %d",
			a.label, size, uint64(a.limit)-p))
	}
	a.next = Addr(p) + Addr(size)
	return Addr(p)
}

// alloc reserves n elements of T, aligned to the element width, and
// binds them to a fresh backing slice. The width is written out twice,
// not kept in a local, so that the five Arena methods stay within the
// inlining budget.
func alloc[T Elem](a *Arena, n int) Buf[T] {
	return Buf[T]{
		base: a.alloc(uint64(n)*uint64(unsafe.Sizeof(T(0))), uint64(unsafe.Sizeof(T(0)))),
		data: make([]T, n),
	}
}

// Float64s allocates a float64 buffer of n elements.
func (a *Arena) Float64s(n int) Float64s { return alloc[float64](a, n) }

// Float32s allocates a float32 buffer of n elements.
func (a *Arena) Float32s(n int) Float32s { return alloc[float32](a, n) }

// Int32s allocates an int32 buffer of n elements.
func (a *Arena) Int32s(n int) Int32s { return alloc[int32](a, n) }

// Int64s allocates an int64 buffer of n elements.
func (a *Arena) Int64s(n int) Int64s { return alloc[int64](a, n) }

// Bytes allocates a byte buffer of n elements.
func (a *Arena) Bytes(n int) Bytes { return alloc[byte](a, n) }

// Elem is the set of guest element types a Buf can hold.
type Elem interface {
	float64 | float32 | int32 | int64 | byte
}

// Buf is a buffer of T bound to a guest address range. Element i sits
// at Base + i*w, where w = unsafe.Sizeof(T) is both the access size
// reported to the Recorder and the buffer's alignment.
//
// At and Set write the width out as unsafe.Sizeof(b.data[0]) rather
// than calling Addr: routed through a helper they exceed the inlining
// budget, and the per-access cost of every traced load and store
// grows several-fold.
type Buf[T Elem] struct {
	base Addr
	data []T
}

// Float64s, Float32s, Int32s, Int64s and Bytes name the five buffer
// shapes the workloads use.
type (
	Float64s = Buf[float64]
	Float32s = Buf[float32]
	Int32s   = Buf[int32]
	Int64s   = Buf[int64]
	Bytes    = Buf[byte]
)

// Len returns the element count.
func (b Buf[T]) Len() int { return len(b.data) }

// Base returns the guest address of element 0.
func (b Buf[T]) Base() Addr { return b.base }

// Addr returns the guest address of element i.
func (b Buf[T]) Addr(i int) Addr { return b.base + Addr(i)*Addr(unsafe.Sizeof(b.data[0])) }

// At loads element i, reporting the access to r.
func (b Buf[T]) At(r Recorder, i int) T {
	r.Access(b.base+Addr(i)*Addr(unsafe.Sizeof(b.data[0])), uint8(unsafe.Sizeof(b.data[0])), Load)
	return b.data[i]
}

// Set stores v into element i, reporting the access to r.
func (b Buf[T]) Set(r Recorder, i int, v T) {
	r.Access(b.base+Addr(i)*Addr(unsafe.Sizeof(b.data[0])), uint8(unsafe.Sizeof(b.data[0])), Store)
	b.data[i] = v
}

// Raw exposes the backing slice for initialization that should not be
// traced (e.g. dataset loading that the paper's start/stop window would
// exclude anyway).
func (b Buf[T]) Raw() []T { return b.data }

// Slice returns a sub-buffer covering [lo,hi).
func (b Buf[T]) Slice(lo, hi int) Buf[T] {
	return Buf[T]{base: b.Addr(lo), data: b.data[lo:hi]}
}
