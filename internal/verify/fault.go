// Fault injection: controlled corruption of the I/O and delivery paths.
//
// The replay substrate's promise is "bit-identical or loudly absent":
// a trace that cannot be decoded must cause re-execution (graceful
// degradation) or a returned error — never a silently wrong miss count.
// These injectors create the failures the promise is about: spill-file
// I/O errors and byte corruption (FaultFS), codec corruption (Corrupt),
// and lost bus events (DropSnooper).

package verify

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"cmpmem/internal/fsb"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
)

// FaultFS implements tracestore.FS over an in-memory filesystem with
// switchable failure modes. All methods are safe for concurrent use.
type FaultFS struct {
	mu    sync.Mutex
	files map[string][]byte

	// Failure switches. Each counts how often it fired.
	FailMkdir   bool
	FailCreate  bool
	FailWrite   bool
	FailRename  bool
	FailOpen    bool
	CorruptRead bool // XOR CorruptMask into the byte at CorruptOff on Open
	CorruptOff  int
	CorruptMask byte

	// Op counters (reads under Counts).
	mkdirs, creates, renames, opens, removes, faults uint64
}

// NewFaultFS returns an empty in-memory filesystem with no faults armed.
func NewFaultFS() *FaultFS {
	return &FaultFS{files: make(map[string][]byte)}
}

// Counts reports (total ops, faults fired) so tests can assert the
// injected path was actually exercised.
func (f *FaultFS) Counts() (ops, faults uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mkdirs + f.creates + f.renames + f.opens + f.removes, f.faults
}

// Files returns the names currently stored.
func (f *FaultFS) Files() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.files))
	for n := range f.files {
		names = append(names, n)
	}
	return names
}

// MkdirAll implements tracestore.FS (directories are implicit here).
func (f *FaultFS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mkdirs++
	if f.FailMkdir {
		f.faults++
		return fmt.Errorf("faultfs: injected mkdir failure for %q", dir)
	}
	return nil
}

// CreateTemp implements tracestore.FS.
func (f *FaultFS) CreateTemp(dir, pattern string) (tracestore.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.creates++
	if f.FailCreate {
		f.faults++
		return nil, fmt.Errorf("faultfs: injected create failure in %q", dir)
	}
	name := fmt.Sprintf("%s/%s.%d", dir, pattern, f.creates)
	f.files[name] = nil
	return &faultFile{fs: f, name: name}, nil
}

// Rename implements tracestore.FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.renames++
	if f.FailRename {
		f.faults++
		return fmt.Errorf("faultfs: injected rename failure %q -> %q", oldpath, newpath)
	}
	data, ok := f.files[oldpath]
	if !ok {
		return fmt.Errorf("faultfs: rename source %q does not exist", oldpath)
	}
	delete(f.files, oldpath)
	f.files[newpath] = data
	return nil
}

// Open implements tracestore.FS, applying read corruption when armed.
func (f *FaultFS) Open(name string) (io.ReadCloser, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opens++
	if f.FailOpen {
		f.faults++
		return nil, fmt.Errorf("faultfs: injected open failure for %q", name)
	}
	data, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("faultfs: %q does not exist", name)
	}
	buf := append([]byte(nil), data...)
	if f.CorruptRead && f.CorruptOff < len(buf) {
		f.faults++
		buf[f.CorruptOff] ^= f.CorruptMask
	}
	return io.NopCloser(bytes.NewReader(buf)), nil
}

// Remove implements tracestore.FS.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.removes++
	delete(f.files, name)
	return nil
}

// faultFile is an open handle on a FaultFS file.
type faultFile struct {
	fs   *FaultFS
	name string
	buf  []byte
}

// Write implements io.Writer, honoring the write-failure switch.
func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.FailWrite {
		w.fs.faults++
		return 0, fmt.Errorf("faultfs: injected write failure for %q", w.name)
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Close implements io.Closer, publishing the buffered contents.
func (w *faultFile) Close() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.fs.files[w.name] = w.buf
	return nil
}

// Name implements tracestore.File.
func (w *faultFile) Name() string { return w.name }

// Corrupt returns a copy of data with the byte at off XORed with mask.
// An offset past the end returns an unmodified copy (so fuzzers can
// probe freely).
func Corrupt(data []byte, off int, mask byte) []byte {
	out := append([]byte(nil), data...)
	if off >= 0 && off < len(out) && mask != 0 {
		out[off] ^= mask
	}
	return out
}

// DropSnooper forwards bus traffic to Inner but silently drops every
// DropEvery-th event (1-based count across refs and messages) — the
// lost-transaction fault a digest or conservation check must catch.
// Finalize is forwarded so the inner snooper keeps its lifecycle
// guarantees even while losing data.
type DropSnooper struct {
	Inner     fsb.Snooper
	DropEvery uint64
	seen      uint64
	dropped   uint64
}

// Dropped returns the number of events withheld from Inner.
func (d *DropSnooper) Dropped() uint64 { return d.dropped }

// OnRef implements fsb.Snooper.
func (d *DropSnooper) OnRef(r trace.Ref) {
	d.seen++
	if d.DropEvery > 0 && d.seen%d.DropEvery == 0 {
		d.dropped++
		return
	}
	d.Inner.OnRef(r)
}

// OnMsg implements fsb.Snooper.
func (d *DropSnooper) OnMsg(m fsb.Message) {
	d.seen++
	if d.DropEvery > 0 && d.seen%d.DropEvery == 0 {
		d.dropped++
		return
	}
	d.Inner.OnMsg(m)
}

// Finalize implements fsb.Finalizer by forwarding.
func (d *DropSnooper) Finalize() {
	if f, ok := d.Inner.(fsb.Finalizer); ok {
		f.Finalize()
	}
}
