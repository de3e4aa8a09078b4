// Package tracestore memoizes captured bus-event streams so that every
// experiment touching the same (workload, params, platform, seed) tuple
// executes the guest-thread simulation at most once and replays the
// stream everywhere else — the paper's Dragonhead board applied many
// reprogrammed cache configurations to one snooped FSB stream; the
// store is the software equivalent across experiment invocations.
//
// The store is safe for concurrent use by the parallel exhibit
// orchestrator: per-key single-flight collapses simultaneous requests
// for the same stream into one execution, an in-memory LRU bounds the
// resident footprint, and an optional spill directory persists evicted
// (and freshly captured) streams in the compact trace codec so later
// runs — even in a new process — skip execution entirely.
package tracestore

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"cmpmem/internal/sampling"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
)

// Key identifies one captured stream: everything that determines the
// bus-event sequence bit-for-bit. Workload datasets derive from
// (Workload, Seed, Scale); the interleaving derives from the platform
// shape (Threads, Quantum) and the platform noise source (Noise,
// PlatSeed).
type Key struct {
	Workload string
	// Seed and Scale are the dataset parameters (workloads.Params).
	Seed  int64
	Scale float64
	// Threads, Quantum, Noise, and PlatSeed are the normalized platform
	// configuration.
	Threads  int
	Quantum  uint64
	Noise    int
	PlatSeed int64
}

// String renders the key for diagnostics and spill filenames.
func (k Key) String() string {
	return fmt.Sprintf("%s/seed%d/scale%g/t%d/q%d/n%d/ps%d",
		k.Workload, k.Seed, k.Scale, k.Threads, k.Quantum, k.Noise, k.PlatSeed)
}

// Summary carries the execution-side totals of the captured run, so a
// replayed experiment returns the identical RunSummary without
// re-deriving it.
type Summary struct {
	Workload     string
	Threads      int
	Instructions uint64
	Loads        uint64
	Stores       uint64
	BusEvents    uint64
}

// Trace is one memoized stream: the complete bus-event sequence (memory
// transactions plus control messages encoded as reserved-window
// transactions, in exact delivery order) and the run summary. The
// sequence is kept encoded — roughly 4x smaller than a []Ref slice —
// in fixed-size chunks, and decoded on the fly during replay; Player
// returns an independent zero-allocation cursor, so one Trace serves any
// number of concurrent replays. The sample plan the fast tier derives
// from the stream is memoized here too (SamplePlan), with the seek marks
// of its windows (WindowMarks), so both share the capture's lifetime.
type Trace struct {
	Summary Summary
	chunks  [][]byte // the encoded stream, header included, cut anywhere
	n       int      // encoded bytes across chunks

	mu    sync.Mutex
	plan  *planCall // the sample plan built from this stream, or its build
	marks any       // the plan's window marks, once a measure published them
}

// chunkSize is the capacity of every chunk a Recorder or a spill load
// fills: a stream is resident within one chunk of its encoded length,
// and its seams are one record in tens of thousands.
const chunkSize = 256 << 10

// planCall is the memoized (or in-flight) plan build.
type planCall struct {
	done chan struct{}
	plan *sampling.Plan
	err  error
}

// SamplePlan returns the stream's sample plan, calling build at most
// once: a plan depends on the stream only — never on the cache grid —
// so every sampled sweep of a capture after the first skips the
// fingerprint pass. Concurrent callers wait for the one build; hit
// reports that this call did not run build. The memo lives and dies
// with the Trace: a capture evicted from its Store and captured again
// starts empty. A failed build is not kept. The returned Plan is
// shared; treat it as immutable.
func (t *Trace) SamplePlan(build func() (*sampling.Plan, error)) (plan *sampling.Plan, hit bool, err error) {
	t.mu.Lock()
	if c := t.plan; c != nil {
		t.mu.Unlock()
		<-c.done
		return c.plan, true, c.err
	}
	c := &planCall{done: make(chan struct{})}
	t.plan = c
	t.mu.Unlock()

	c.err = errors.New("tracestore: sample plan build panicked")
	defer func() {
		if c.err != nil {
			t.mu.Lock()
			if t.plan == c {
				t.plan = nil
			}
			t.mu.Unlock()
		}
		close(c.done)
	}()
	c.plan, c.err = build()
	return c.plan, false, c.err
}

// WindowMarks returns the seek marks a measure of the sample plan's
// windows published with SetWindowMarks, or nil before one did. The
// value belongs to the measuring pass; the store only keeps it.
func (t *Trace) WindowMarks() any {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.marks
}

// SetWindowMarks publishes m beside the sample plan, for every later
// measure of its windows to seek by.
func (t *Trace) SetWindowMarks(m any) {
	t.mu.Lock()
	t.marks = m
	t.mu.Unlock()
}

// Player returns a fresh decode cursor over the stream.
func (t *Trace) Player() (*trace.StreamPlayer, error) {
	return trace.NewStreamPlayer(t.chunks...)
}

// Encoded returns a copy of the complete encoded stream (header
// included). The verification layer corrupts such copies to prove the
// decode path fails loudly; the store's own bytes stay immutable.
func (t *Trace) Encoded() []byte {
	return slices.Concat(t.chunks...)
}

// NewTrace builds a Trace directly from an encoded stream (header
// included), as one chunk — the injection point for fault testing and
// for replaying externally captured streams. The encoding is validated
// lazily: a corrupt stream surfaces as a Player decode error.
func NewTrace(sum Summary, enc []byte) *Trace {
	return &Trace{Summary: sum, chunks: [][]byte{enc}, n: len(enc)}
}

// EncodedLen reports the stream's encoded size in bytes.
func (t *Trace) EncodedLen() int { return t.n }

// traceOverhead approximates a Trace's own struct and chunk list.
const traceOverhead = 128

// SizeBytes is the resident footprint of the trace: its chunks'
// capacities plus a fixed overhead. It is fixed at construction, and
// neither the memoized sample plan nor its window marks are counted: a
// Store subtracts the same figure again on eviction.
func (t *Trace) SizeBytes() uint64 {
	size := uint64(traceOverhead)
	for _, c := range t.chunks {
		size += uint64(cap(c))
	}
	return size
}

// Recorder accumulates a bus-event stream during live capture, encoding
// each event straight into the compact trace codec — the raw []Ref form of
// a full run never materializes — and straight into fixed-size chunks,
// so what a capture holds is what it stores. A record goes into the
// last chunk in place while MaxRecSize bytes remain there, and through
// a scratch record across the seam otherwise.
type Recorder struct {
	enc     trace.Encoder
	chunks  [][]byte
	scratch [trace.MaxRecSize]byte
	events  uint64
	err     error
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{chunks: [][]byte{trace.AppendHeader(make([]byte, 0, chunkSize))}}
}

// Add appends one event; errors are sticky and surface in Finish.
func (r *Recorder) Add(ref trace.Ref) { r.AddBatch([]trace.Ref{ref}) }

// AddBatch appends events in order; errors are sticky and surface in
// Finish.
func (r *Recorder) AddBatch(refs []trace.Ref) {
	if r.err != nil {
		return
	}
	c := r.chunks[len(r.chunks)-1]
	for i, ref := range refs {
		var err error
		if chunkSize-len(c) >= trace.MaxRecSize {
			c, err = r.enc.Append(c, ref)
		} else {
			c, err = r.seam(c, ref)
		}
		if err != nil {
			r.err = err
			refs = refs[:i]
			break
		}
	}
	r.chunks[len(r.chunks)-1] = c
	r.events += uint64(len(refs))
}

// seam encodes ref through the scratch record and splits it between the
// last chunk, c, and a new one where it does not fit; it returns the
// last chunk.
func (r *Recorder) seam(c []byte, ref trace.Ref) ([]byte, error) {
	rec, err := r.enc.Append(r.scratch[:0], ref)
	if err != nil {
		return c, err
	}
	k := min(len(rec), chunkSize-len(c))
	if c = append(c, rec[:k]...); k == len(rec) {
		return c, nil
	}
	r.chunks[len(r.chunks)-1] = c
	c = append(make([]byte, 0, chunkSize), rec[k:]...)
	r.chunks = append(r.chunks, c)
	return c, nil
}

// Finish seals the stream and returns the memoizable trace.
func (r *Recorder) Finish(sum Summary) (*Trace, error) {
	if r.err != nil {
		return nil, r.err
	}
	sum.BusEvents = r.events
	tr := &Trace{Summary: sum, chunks: r.chunks}
	for _, c := range r.chunks {
		tr.n += len(c)
	}
	return tr, nil
}

// DefaultMaxBytes is the default in-memory budget: large enough to hold
// every stream of a full test/bench sweep, small enough to stay
// comfortable beside the workloads' own datasets.
const DefaultMaxBytes = 1 << 30

// Stats reports store effectiveness. The JSON form is the trace_store
// record of cosimd's /v1/statusz.
type Stats struct {
	// Hits served from memory; DiskHits served by decoding a spill
	// file; Misses executed the workload.
	Hits     uint64 `json:"hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	// Waits counts single-flight collapses: a caller that found its key
	// already executing and waited for that execution instead of
	// starting another. N concurrent requests for one cold key cost one
	// Miss and N-1 Waits.
	Waits uint64 `json:"singleflight_waits"`
	// Evictions dropped an entry from memory (still on disk when a
	// spill directory is configured).
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes describe current residency.
	Entries int    `json:"entries"`
	Bytes   uint64 `json:"resident_bytes"`
}

// FS abstracts the spill directory's filesystem operations so the
// verification layer can inject I/O faults (verify.FaultFS). The
// default implementation is the real OS filesystem.
type FS interface {
	MkdirAll(dir string) error
	// CreateTemp creates a unique scratch file in dir.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Open(name string) (io.ReadCloser, error)
	Remove(name string) error
}

// File is the writable handle CreateTemp returns.
type File interface {
	io.Writer
	io.Closer
	Name() string
}

// OSFS is the real-filesystem FS implementation (the default).
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// CreateTemp implements FS.
func (OSFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Open implements FS.
func (OSFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Store is the memoized trace cache.
type Store struct {
	maxBytes uint64
	dir      string
	fs       FS

	mu       sync.Mutex
	entries  map[Key]*entry
	lru      *list.List // front = MRU; values are *entry
	inflight map[Key]*call
	bytes    uint64
	stats    Stats

	// Telemetry handles (nil = disabled). Store operations are
	// per-experiment, not per-event, so these increment directly.
	telHits      *telemetry.Counter // tracestore_hits_total
	telDiskHits  *telemetry.Counter // tracestore_disk_hits_total
	telMisses    *telemetry.Counter // tracestore_misses_total
	telWaits     *telemetry.Counter // tracestore_singleflight_waits_total
	telEvictions *telemetry.Counter // tracestore_evictions_total
	telSpilled   *telemetry.Counter // tracestore_spilled_bytes_total
	telResident  *telemetry.Gauge   // tracestore_bytes_resident
}

// Instrument registers the store's metrics into r (nil disables); a
// store from New is uninstrumented until its owner calls it. Call it
// before the store sees concurrent traffic — the handles are read
// without the store lock on the hot path.
func (s *Store) Instrument(r *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.telHits = r.Counter("tracestore_hits_total")
	s.telDiskHits = r.Counter("tracestore_disk_hits_total")
	s.telMisses = r.Counter("tracestore_misses_total")
	s.telWaits = r.Counter("tracestore_singleflight_waits_total")
	s.telEvictions = r.Counter("tracestore_evictions_total")
	s.telSpilled = r.Counter("tracestore_spilled_bytes_total")
	s.telResident = r.Gauge("tracestore_bytes_resident")
}

type entry struct {
	key  Key
	tr   *Trace
	elem *list.Element
}

type call struct {
	done chan struct{}
	tr   *Trace
	err  error
}

// New returns a store with the given in-memory byte budget (0 selects
// DefaultMaxBytes) and optional spill directory ("" disables spill).
func New(maxBytes uint64, dir string) *Store {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{
		maxBytes: maxBytes,
		dir:      dir,
		fs:       OSFS{},
		entries:  make(map[Key]*entry),
		lru:      list.New(),
		inflight: make(map[Key]*call),
	}
}

// SetFS replaces the spill filesystem (fault injection; nil restores
// the OS filesystem). Call before the store sees traffic.
func (s *Store) SetFS(fs FS) {
	if fs == nil {
		fs = OSFS{}
	}
	s.mu.Lock()
	s.fs = fs
	s.mu.Unlock()
}

// spillFS reads the current filesystem handle under the lock.
func (s *Store) spillFS() FS {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fs
}

// Stats returns a point-in-time reading of the store counters:
// hits, disk hits, misses (= workload executions), single-flight waits,
// evictions, and current residency. It is the programmatic equivalent
// of the tracestore_* Prometheus series, for callers such as the cosimd
// status endpoint that want real numbers without scraping text.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	return st
}

// Outcome classifies how one DoOutcome call was satisfied. Request
// tracing annotates the store span with it, so a slow request can say
// "blocked behind another tenant's capture" versus "executed fresh".
type Outcome uint8

const (
	// OutcomeHit: served from the in-memory LRU.
	OutcomeHit Outcome = iota
	// OutcomeWait: collapsed onto another caller's in-flight execution.
	OutcomeWait
	// OutcomeDisk: revived from a checksummed disk spill.
	OutcomeDisk
	// OutcomeMiss: executed the workload.
	OutcomeMiss
)

// String names the outcome for span attributes and logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeWait:
		return "wait"
	case OutcomeDisk:
		return "disk"
	default:
		return "miss"
	}
}

// DoOutcome returns the stream for k, computing it with execute exactly
// once per key: concurrent callers for the same key wait for the first
// execution instead of re-running the workload. The returned Trace is
// shared and immutable; each replay obtains its own cursor via Player.
// The Outcome says how the call was served — memory hit, single-flight
// wait, disk revival, or fresh execution.
//
// A failed or panicking execution is not shared: its waiters look the
// key up again, since the leader's capture may have failed for its own
// answerers' reasons, and the panic goes on once the key is released.
func (s *Store) DoOutcome(k Key, execute func() (*Trace, error)) (*Trace, Outcome, error) {
	s.mu.Lock()
	for {
		if e, ok := s.entries[k]; ok {
			s.lru.MoveToFront(e.elem)
			s.stats.Hits++
			s.mu.Unlock()
			s.telHits.Inc()
			return e.tr, OutcomeHit, nil
		}
		c, ok := s.inflight[k]
		if !ok {
			break
		}
		s.stats.Waits++
		s.mu.Unlock()
		s.telWaits.Inc()
		if <-c.done; c.err == nil {
			return c.tr, OutcomeWait, nil
		}
		s.mu.Lock()
	}
	c := &call{done: make(chan struct{}), err: errExecutePanicked}
	s.inflight[k] = c
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, k)
		s.mu.Unlock()
		close(c.done)
	}()

	tr, fromDisk := s.loadSpill(k)
	var err error
	if tr == nil {
		tr, err = execute()
		if err == nil {
			s.writeSpill(k, tr) // best-effort persistence
		}
	}

	outcome := OutcomeMiss
	s.mu.Lock()
	if err == nil {
		if fromDisk {
			outcome = OutcomeDisk
			s.stats.DiskHits++
			s.telDiskHits.Inc()
		} else {
			s.stats.Misses++
			s.telMisses.Inc()
		}
		s.insertLocked(k, tr)
	}
	c.tr, c.err = tr, err
	s.mu.Unlock()
	return tr, outcome, err
}

// errExecutePanicked is a call's error until its execute returns.
var errExecutePanicked = errors.New("tracestore: execute panicked")

// insertLocked adds the entry and evicts LRU entries past the budget.
// The newly inserted entry may itself be evicted when it alone exceeds
// the budget — callers already hold the *Trace, so correctness is
// unaffected; only future reuse is.
func (s *Store) insertLocked(k Key, tr *Trace) {
	e := &entry{key: k, tr: tr}
	e.elem = s.lru.PushFront(e)
	s.entries[k] = e
	s.bytes += tr.SizeBytes()
	for s.bytes > s.maxBytes && s.lru.Len() > 0 {
		victim := s.lru.Back().Value.(*entry)
		s.lru.Remove(victim.elem)
		delete(s.entries, victim.key)
		s.bytes -= victim.tr.SizeBytes()
		s.stats.Evictions++
		s.telEvictions.Inc()
	}
	s.telResident.Set(int64(s.bytes))
}

// --- disk spill -------------------------------------------------------

// spillMagic heads a spill file: a checksum, then the store's own
// header (key echo + summary) followed by an encoded trace stream.
// Version 2 added the checksum (FNV-1a); version 3 made it the CRC pair
// of spillSum. Files from older versions fail the magic check and
// degrade to a recompute, as does a spill whose stream a retired codec
// version wrote (it fails the codec's own magic check).
var spillMagic = [8]byte{'C', 'M', 'P', 'S', 3, 0, 0, 0}

// castagnoli is hash/crc32's (hardware-accelerated) CRC-32C table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// spillSum is the 64-bit spill checksum: CRC-32C in the low 32 bits and
// CRC-32/IEEE in the high 32. hash/crc32 computes both with SSE4.2 and
// PCLMULQDQ on amd64, several times FNV-1a's throughput.
type spillSum struct{ c, ieee uint32 }

// Write implements io.Writer; it never fails.
func (h *spillSum) Write(p []byte) (int, error) {
	h.c = crc32.Update(h.c, castagnoli, p)
	h.ieee = crc32.Update(h.ieee, crc32.IEEETable, p)
	return len(p), nil
}

// Sum64 returns the checksum of everything written so far.
func (h *spillSum) Sum64() uint64 { return uint64(h.ieee)<<32 | uint64(h.c) }

// spillPath derives a stable filename from the key. The full key is
// echoed inside the file and verified on load, so a hash collision
// degrades to a recompute, never to a wrong stream.
func (s *Store) spillPath(k Key) string {
	h := fnv.New64a()
	fmt.Fprint(h, k.String())
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		}
		return '_'
	}, k.Workload)
	return filepath.Join(s.dir, fmt.Sprintf("%s-%016x.ctrace", name, h.Sum64()))
}

// writeSpill persists the stream; failures are silent (the spill is an
// optimization, never a correctness dependency). The file is written to
// a temp name and renamed so concurrent processes see only whole files.
func (s *Store) writeSpill(k Key, tr *Trace) {
	if s.dir == "" {
		return
	}
	fs := s.spillFS()
	if err := fs.MkdirAll(s.dir); err != nil {
		return
	}
	path := s.spillPath(k)
	tmp, err := fs.CreateTemp(s.dir, ".ctrace-*")
	if err != nil {
		return
	}
	defer fs.Remove(tmp.Name())
	if err := writeSpillFile(tmp, k, tr); err != nil {
		tmp.Close()
		return
	}
	if err := tmp.Close(); err != nil {
		return
	}
	if fs.Rename(tmp.Name(), path) == nil {
		s.telSpilled.Add(uint64(tr.n))
	}
}

// writeSpillFile writes the magic, the spillSum checksum of the payload,
// and the payload: the header, then the stream's chunks as they are.
// The codec's own structure catches most stream corruption — records that fail to
// decode, reserved bits, a wrong event count — but a bit flip inside a
// delta payload can decode into a *different valid stream*, and a
// flipped summary field has no structure at all. The checksum closes
// both holes: any spill corruption degrades to a recompute, never to
// wrong replayed numbers.
func writeSpillFile(w io.Writer, k Key, tr *Trace) error {
	var hdr bytes.Buffer
	if err := writeKeyAndSummary(&hdr, k, tr.Summary); err != nil {
		return err
	}
	payload := append([][]byte{hdr.Bytes()}, tr.chunks...)
	var h spillSum
	for _, p := range payload {
		h.Write(p)
	}
	head := binary.LittleEndian.AppendUint64(spillMagic[:len(spillMagic):len(spillMagic)], h.Sum64())
	for _, p := range append([][]byte{head}, payload...) {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// loadSpill returns the stream from disk, or nil when absent/invalid.
func (s *Store) loadSpill(k Key) (*Trace, bool) {
	if s.dir == "" {
		return nil, false
	}
	f, err := s.spillFS().Open(s.spillPath(k))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	tr, err := readSpillFile(f, k)
	if err != nil {
		return nil, false
	}
	return tr, true
}

// readSpillFile revives a spill: the stream goes straight from r into
// chunkSize chunks, hashed on the way in, so nothing is read twice or
// held in a second copy.
func readSpillFile(r io.Reader, want Key) (*Trace, error) {
	var head [16]byte // spill magic, then the payload checksum
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	if [8]byte(head[:8]) != spillMagic {
		return nil, fmt.Errorf("tracestore: bad spill magic")
	}
	var h spillSum
	body := io.TeeReader(r, &h)
	k, sum, err := readKeyAndSummary(body)
	if err != nil {
		return nil, err
	}
	if k != want {
		return nil, fmt.Errorf("tracestore: spill key mismatch: have %v, want %v", k, want)
	}
	tr := &Trace{Summary: sum}
	for {
		c := make([]byte, chunkSize)
		n, err := io.ReadFull(body, c)
		if n > 0 {
			tr.chunks, tr.n = append(tr.chunks, c[:n]), tr.n+n
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		} else if err != nil {
			return nil, err
		}
	}
	if got, recorded := h.Sum64(), binary.LittleEndian.Uint64(head[8:]); got != recorded {
		return nil, fmt.Errorf("tracestore: spill checksum %#x != recorded %#x", got, recorded)
	}
	// Verify the stream decodes cleanly and matches the recorded length
	// before trusting it — a corrupt spill degrades to a recompute.
	p, err := tr.Player()
	if err != nil {
		return nil, err
	}
	var buf [64]trace.Ref
	var n uint64
	for k := p.NextBatch(buf[:]); k > 0; k = p.NextBatch(buf[:]) {
		n += uint64(k)
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	if n != sum.BusEvents {
		return nil, fmt.Errorf("tracestore: spill stream length %d != recorded %d",
			n, sum.BusEvents)
	}
	return tr, nil
}

// writeKeyAndSummary serializes the key echo and summary: a
// little-endian uint16 name length, the workload name, then eleven
// little-endian uint64 fields.
func writeKeyAndSummary(w io.Writer, k Key, sum Summary) error {
	if len(k.Workload) > math.MaxUint16 {
		return fmt.Errorf("tracestore: workload name too long")
	}
	fields := []uint64{uint64(k.Seed), math.Float64bits(k.Scale), uint64(k.Threads), k.Quantum,
		uint64(k.Noise), uint64(k.PlatSeed),
		uint64(sum.Threads), sum.Instructions, sum.Loads, sum.Stores, sum.BusEvents}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(k.Workload))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, k.Workload); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, fields)
}

func readKeyAndSummary(r io.Reader) (Key, Summary, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return Key{}, Summary{}, err
	}
	name := make([]byte, n)
	fields := make([]uint64, 11)
	if _, err := io.ReadFull(r, name); err != nil {
		return Key{}, Summary{}, err
	}
	if err := binary.Read(r, binary.LittleEndian, fields); err != nil {
		return Key{}, Summary{}, err
	}
	k := Key{
		Workload: string(name),
		Seed:     int64(fields[0]),
		Scale:    math.Float64frombits(fields[1]),
		Threads:  int(fields[2]),
		Quantum:  fields[3],
		Noise:    int(fields[4]),
		PlatSeed: int64(fields[5]),
	}
	sum := Summary{
		Workload:     string(name),
		Threads:      int(fields[6]),
		Instructions: fields[7],
		Loads:        fields[8],
		Stores:       fields[9],
		BusEvents:    fields[10],
	}
	return k, sum, nil
}
