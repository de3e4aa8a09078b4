package tracestore

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// fuzzRefs draws a stream that encodes to more than two chunks, so the
// recorder crosses at least two seams at offsets the draw decides: up
// to cores distinct cores (1-255), same-core runs, odd sizes, address
// deltas of every width. When bad >= 0, the event at index bad (mod the
// stream's length) carries a kind the codec cannot encode.
func fuzzRefs(seed int64, cores uint8, bad int32) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	ncores := 1 + int(cores)%255
	var enc trace.Encoder
	var refs []trace.Ref
	var blocks []byte
	var addr [256]uint64
	core := 0
	for n := 0; n <= 2*chunkSize+rng.Intn(chunkSize); {
		if rng.Intn(4) == 0 {
			core = rng.Intn(ncores)
		}
		size := uint8(8)
		if rng.Intn(3) == 0 {
			size = uint8(rng.Intn(256))
		}
		delta := rng.Uint64() >> rng.Intn(65)
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		addr[core] += delta
		refs = append(refs, trace.Ref{Addr: mem.Addr(addr[core]), Core: uint8(core), Size: size, Kind: mem.Kind(rng.Intn(2))})
		blocks, _ = enc.AppendBlocks(blocks[:0], refs[len(refs)-1:])
		n += len(blocks)
	}
	if bad >= 0 {
		refs[int(bad)%len(refs)].Kind = mem.Kind(2 + bad%254)
	}
	return refs
}

// writerBytes encodes refs through trace.Writer into memory. It returns
// the flushed bytes of the events before the first error, the event
// count, and that error.
func writerBytes(t *testing.T, refs []trace.Ref) ([]byte, uint64, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriterV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err = w.Write(r); err != nil {
			// The writer's error is sticky and keeps its buffer: encode the
			// events it took once more to see their bytes.
			enc, n, _ := writerBytes(t, refs[:w.Count()])
			return enc, n, err
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w.Count(), nil
}

// FuzzRecorderMatchesWriter holds the Recorder, which encodes straight
// into its chunks, to trace.Writer, which encodes through a bufio
// buffer: the same bytes, event count and sticky error for any stream
// handed over in any cut into Add and AddBatch calls, and chunks cut at
// exactly chunkSize.
func FuzzRecorderMatchesWriter(f *testing.F) {
	f.Add(int64(1), uint8(8), []byte{64}, int32(-1))
	f.Add(int64(2), uint8(0), []byte{0}, int32(-1))               // one core, Add only
	f.Add(int64(3), uint8(254), []byte{255, 1, 0, 17}, int32(-1)) // 255 cores, mixed cuts
	f.Add(int64(4), uint8(3), []byte{13, 200}, int32(5))          // an invalid kind early
	f.Add(int64(5), uint8(31), []byte{7}, int32(1<<31-1))         // ... late
	// ... and on the first and the last record of the block the first
	// seam cuts, and on the first record of the block after it.
	refs, n := fuzzRefs(6, 100, -1), len(trace.AppendHeader(nil))
	var enc trace.Encoder
	for i := 0; n < chunkSize; i += trace.BlockLen {
		blk, _ := enc.AppendBlocks(nil, refs[i:i+trace.BlockLen])
		if n += len(blk); n > chunkSize {
			for _, at := range []int{i, i + trace.BlockLen - 1, i + trace.BlockLen} {
				f.Add(int64(6), uint8(100), []byte{1, 2, 3, 5, 8}, int32(at))
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, cores uint8, cuts []byte, bad int32) {
		checkRecorder(t, fuzzRefs(seed, cores, bad), cuts)
	})
}

// TestRecorderSeamOffsets: the first seam cuts a block of maximal
// records at offsets inside its count byte's place, its headers and its
// fields, and then the stream goes on in maximal records across the
// next seams.
func TestRecorderSeamOffsets(t *testing.T) {
	const maxBlock = 1 + trace.BlockLen*11
	if maxBlock != trace.MaxBlockSize {
		t.Fatalf("a block of maximal records takes %d B, MaxBlockSize is %d", maxBlock, trace.MaxBlockSize)
	}
	// Records with no field bytes (same core, 8 bytes, no delta) and
	// with one (a 1-byte delta) place the block of maximal records: x
	// blocks of the first kind take 65 B each, and one block with j of
	// the second kind 65+j B.
	tiny := func(n int, deltas int) []trace.Ref {
		refs := make([]trace.Ref, n)
		for i := range refs {
			// A step of one, zigzag 2, for the first deltas records.
			refs[i] = trace.Ref{Addr: mem.Addr(min(i+1, deltas)), Size: 8}
		}
		return refs
	}
	for _, off := range []int{0, 1, 2, 33, trace.BlockLen - 1, trace.BlockLen, trace.BlockLen + 1, trace.BlockLen + 2, 400, maxBlock - 2, maxBlock - 1} {
		before := chunkSize - len(trace.AppendHeader(nil)) - off
		x := (before - 65) / 65
		j := before - 65 - 65*x
		refs := tiny(trace.BlockLen*x, 0)
		refs = append(refs, tiny(trace.BlockLen, j)...)
		// Then maximal records: a new core, a 3-byte size, and a delta of
		// 1<<63, whose zigzag form takes all eight delta bytes.
		for i := 0; i < 2*chunkSize/11; i++ {
			refs = append(refs, trace.Ref{Addr: mem.Addr(uint64(1+i/2) % 2 << 63), Core: uint8(1 + i%2), Size: 3})
		}
		checkRecorder(t, refs, []byte{255, 0, 1, 7})
		var enc trace.Encoder
		head, _ := enc.AppendBlocks(trace.AppendHeader(nil), refs[:len(refs)-2*chunkSize/11])
		if len(head) != chunkSize-off {
			t.Fatalf("offset %d: the blocks before the maximal ones take %d B, want %d", off, len(head), chunkSize-off)
		}
	}
}

// checkRecorder records refs, cut into Add (a zero cut) and AddBatch
// calls of the lengths cuts cycles through, and holds the recorder to
// trace.Writer.
func checkRecorder(t *testing.T, refs []trace.Ref, cuts []byte) {
	t.Helper()
	if len(cuts) == 0 {
		cuts = []byte{1}
	}
	want, wantN, wantErr := writerBytes(t, refs)

	rec := NewRecorder()
	for i, rest := 0, refs; len(rest) > 0; i++ {
		k := min(int(cuts[i%len(cuts)]), len(rest))
		if k == 0 {
			rec.Add(rest[0])
			k = 1
		} else {
			rec.AddBatch(rest[:k])
		}
		rest = rest[k:]
	}
	tr, err := rec.Finish(Summary{Workload: "FUZZ"})
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("recorder error %v, writer error %v", err, wantErr)
	}
	if n := rec.enc.Count(); n != wantN {
		t.Fatalf("recorder took %d events, the writer %d", n, wantN)
	}
	for i, c := range rec.chunks {
		if cap(c) != chunkSize || (i < len(rec.chunks)-1 && len(c) != chunkSize) {
			t.Fatalf("chunk %d of %d: len %d cap %d, want every chunk but the last full at %d", i, len(rec.chunks), len(c), cap(c), chunkSize)
		}
	}
	if got := slices.Concat(rec.chunks...); !bytes.Equal(got, want) {
		t.Fatalf("recorder holds %d B, the writer wrote %d B; first difference at %d", len(got), len(want), firstDiff(got, want))
	}
	if err != nil {
		return
	}
	if !bytes.Equal(tr.Encoded(), want) || tr.EncodedLen() != len(want) || tr.Summary.BusEvents != wantN {
		t.Fatalf("trace holds %d B / %d events, the writer wrote %d B / %d", tr.EncodedLen(), tr.Summary.BusEvents, len(want), wantN)
	}
	if n := len(tr.chunks); n < 3 || tr.SizeBytes() != uint64(n*chunkSize+traceOverhead) {
		t.Fatalf("%d chunks, SizeBytes %d; want at least 3 and %d", n, tr.SizeBytes(), n*chunkSize+traceOverhead)
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
