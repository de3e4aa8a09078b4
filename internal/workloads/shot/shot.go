// Package shot implements the paper's SHOT workload: video shot-boundary
// detection (Section 2.6). Each frame is decoded into a thread-private
// buffer; a 48-bin RGB color histogram (16 bins per channel) and a
// pixel-wise difference against the previous frame are computed, and a
// shot cut is declared when the combined discontinuity exceeds an
// adaptive threshold.
//
// Memory behaviour (paper findings this reproduces): each thread owns a
// pair of frame buffers and iterates over them with constant stride —
// a private working set of ~4 MB paper-equivalent per thread that
// scales linearly with thread count (Figures 5-6), with streaming
// accesses that love large cache lines (Figure 7: near-linear miss
// reduction to 256 B) and hardware prefetching (Figure 8).
package shot

import (
	"fmt"

	"cmpmem/internal/datasets"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

// Paper parameters: 10-minute MPEG-2 clip at 720×576.
const (
	paperWidth      = 720
	paperHeight     = 576
	histBins        = 48 // 16 per RGB channel
	framesPerThread = 12
	histStride      = 2 // histogram subsampling (every 2nd pixel)
)

// Workload is the SHOT instance.
type Workload struct {
	p workloads.Params

	width, height int
	video         *datasets.Video
	threads       int

	// Cuts holds detected cut frame numbers (merged, ascending).
	Cuts []int32

	perThread [][]int32
}

// New builds a SHOT workload description.
func New(p workloads.Params) *Workload {
	p = p.WithDefaults()
	// Scale frame area by Scale: each dimension by sqrt(Scale).
	w := p.ScaleSqrt(paperWidth, 45)
	h := p.ScaleSqrt(paperHeight, 36)
	return &Workload{p: p, width: w, height: h}
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return "SHOT" }

// Table1 implements workloads.Workload.
func (w *Workload) Table1() (string, string) {
	threads := w.threads
	if threads < 1 {
		threads = 1
	}
	frames := framesPerThread * threads
	return fmt.Sprintf("%d frames of %dx%d video (scaled)", frames, w.width, w.height),
		workloads.MiB(uint64(frames) * uint64(w.width) * uint64(w.height) * 3)
}

// Category implements workloads.Workload.
func (w *Workload) Category() workloads.SharingCategory { return workloads.PrivateWS }

// Video returns the ground-truth clip (after Build), for validation.
func (w *Workload) Video() *datasets.Video { return w.video }

// Build implements workloads.Workload.
func (w *Workload) Build(sp *mem.Space, sched *softsdv.Scheduler, threads int) (softsdv.Program, error) {
	if threads < 1 {
		return nil, fmt.Errorf("shot: threads must be >= 1, got %d", threads)
	}
	w.threads = threads
	totalFrames := framesPerThread * threads
	w.video = datasets.GenVideo(w.p.Seed, datasets.FrameSpec{
		Width: w.width, Height: w.height,
		Frames: totalFrames, MeanShotLen: 6,
	})
	w.perThread = make([][]int32, threads)
	barrier := sched.NewBarrier(threads)
	frameBytes := w.width * w.height * 3

	return softsdv.ProgramFunc(func(t *softsdv.Thread, core int) {
		priv := sp.NewArena(fmt.Sprintf("shot/frames%d", core),
			uint64(frameBytes)*2+histBins*8*2+1<<12)
		cur := priv.Bytes(frameBytes)
		prev := priv.Bytes(frameBytes)
		histCur := priv.Int64s(histBins)
		histPrev := priv.Int64s(histBins)

		lo := core * framesPerThread
		hi := lo + framesPerThread
		var cuts []int32
		scratch := make([]byte, frameBytes)
		var prevDiff float64
		for f := lo; f < hi; f++ {
			// "Decode": the synthetic renderer produces the frame
			// host-side; the stores into the private frame buffer model
			// the decoder's output traffic. Pixels move at 3-byte (RGB)
			// granularity, matching a byte-planar decoder's writes.
			w.video.RenderRGB(f, scratch)
			copy(cur.Raw(), scratch)
			for p := 0; p < frameBytes; p += 3 {
				t.Access(cur.Addr(p), 3, mem.Store)
				t.Exec(1)
			}

			// Histogram pass: one 3-byte load per pixel, bin updates.
			for b := 0; b < histBins; b++ {
				histCur.Set(t, b, 0)
			}
			raw := cur.Raw()
			for p := 0; p < frameBytes; p += 3 * histStride {
				t.Access(cur.Addr(p), 3, mem.Load)
				r16 := int(raw[p]) >> 4
				g16 := int(raw[p+1]) >> 4
				b16 := int(raw[p+2]) >> 4
				histCur.Set(t, r16, histCur.At(t, r16)+1)
				histCur.Set(t, 16+g16, histCur.At(t, 16+g16)+1)
				histCur.Set(t, 32+b16, histCur.At(t, 32+b16)+1)
				t.Exec(3)
			}

			if f > lo {
				// Histogram difference.
				var hd int64
				for b := 0; b < histBins; b++ {
					d := histCur.At(t, b) - histPrev.At(t, b)
					if d < 0 {
						d = -d
					}
					hd += d
					t.Exec(2)
				}
				// Pixel-wise difference (supplementary spatial cue).
				var pd int64
				praw := prev.Raw()
				for p := 0; p < frameBytes; p += 3 {
					t.Access(cur.Addr(p), 3, mem.Load)
					t.Access(prev.Addr(p), 3, mem.Load)
					d := int(raw[p]) - int(praw[p])
					if d < 0 {
						d = -d
					}
					pd += int64(d)
					t.Exec(2)
				}
				pixels := float64(frameBytes / 3)
				hdn := float64(hd) / (3 * pixels / histStride)
				pdn := float64(pd) / (255 * pixels)
				diff := float64(0.6*hdn) + float64(0.4*pdn)
				// Adaptive threshold: a cut is a large jump relative to
				// the running inter-frame difference.
				if diff > 0.18 && diff > 3*prevDiff {
					cuts = append(cuts, int32(f))
				}
				prevDiff = float64(0.5*prevDiff) + float64(0.5*diff)
			}

			cur, prev = prev, cur
			histCur, histPrev = histPrev, histCur
		}
		w.perThread[core] = cuts
		barrier.Wait(t)
		if core == 0 {
			w.Cuts = w.Cuts[:0]
			for _, part := range w.perThread {
				w.Cuts = append(w.Cuts, part...)
			}
		}
	}), nil
}
