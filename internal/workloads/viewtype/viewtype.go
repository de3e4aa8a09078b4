// Package viewtype implements the paper's VIEWTYPE workload: sports
// video view-type classification (Section 2.6). For each key frame the
// pipeline converts RGB to HSV, adaptively trains the playfield's
// dominant color by accumulating an HSV histogram over many frames,
// segments the playfield by dominant-color thresholding, runs
// connected-component analysis on the segmentation mask, and classifies
// the frame as global, medium, close-up, or out-of-view from the
// playfield area (and largest-component) statistics.
//
// Memory behaviour (paper findings this reproduces): each thread decodes
// and segments its own key frames — frame, HSV, mask and label planes
// are thread-private (~1 MB paper-equivalent per thread), so the working
// set scales linearly with thread count (Figures 5-6). The plane sweeps
// are unit-stride, so VIEWTYPE profits from prefetching, especially in
// parallel mode (Figure 8).
package viewtype

import (
	"fmt"

	"cmpmem/internal/datasets"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

// Paper parameters: 10-minute MPEG-2 clip at 720×576; segmentation runs
// at half resolution (the low-level processing the paper describes).
const (
	paperWidth      = 360
	paperHeight     = 288
	hueBins         = 64
	framesPerThread = 24
	hueTolerance    = 6 // bins around the dominant hue kept as playfield
)

// Result is the per-frame classification.
type Result struct {
	Frame int32
	View  datasets.ViewKind
}

// Workload is the VIEWTYPE instance.
type Workload struct {
	p workloads.Params

	width, height int
	video         *datasets.Video
	threads       int

	perThread [][]Result
	// Results holds all per-frame classifications after a run.
	Results []Result
}

// New builds a VIEWTYPE workload description.
func New(p workloads.Params) *Workload {
	p = p.WithDefaults()
	w := p.ScaleSqrt(paperWidth, 40)
	h := p.ScaleSqrt(paperHeight, 32)
	return &Workload{p: p, width: w, height: h}
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return "VIEWTYPE" }

// Table1 implements workloads.Workload.
func (w *Workload) Table1() (string, string) {
	threads := w.threads
	if threads < 1 {
		threads = 1
	}
	frames := framesPerThread * threads
	return fmt.Sprintf("%d key frames of %dx%d video (scaled)", frames, w.width, w.height),
		workloads.MiB(uint64(frames) * uint64(w.width) * uint64(w.height) * 3)
}

// Category implements workloads.Workload.
func (w *Workload) Category() workloads.SharingCategory { return workloads.PrivateWS }

// Video returns the ground-truth clip (after Build).
func (w *Workload) Video() *datasets.Video { return w.video }

// Build implements workloads.Workload.
func (w *Workload) Build(sp *mem.Space, sched *softsdv.Scheduler, threads int) (softsdv.Program, error) {
	if threads < 1 {
		return nil, fmt.Errorf("viewtype: threads must be >= 1, got %d", threads)
	}
	w.threads = threads
	totalFrames := framesPerThread * threads
	w.video = datasets.GenVideo(w.p.Seed, datasets.FrameSpec{
		Width: w.width, Height: w.height,
		Frames: totalFrames, MeanShotLen: 8,
	})
	w.perThread = make([][]Result, threads)
	barrier := sched.NewBarrier(threads)
	W, H := w.width, w.height
	frameBytes := W * H * 3
	pixels := W * H

	return softsdv.ProgramFunc(func(t *softsdv.Thread, core int) {
		priv := sp.NewArena(fmt.Sprintf("viewtype/planes%d", core),
			uint64(frameBytes)+uint64(pixels)*2+uint64(pixels)*4+hueBins*8+4096*4+1<<12)
		frame := priv.Bytes(frameBytes)
		hue := priv.Bytes(pixels)
		mask := priv.Bytes(pixels)
		labels := priv.Int32s(pixels)
		hist := priv.Int64s(hueBins)
		parent := priv.Int32s(4096) // union-find for label equivalences

		lo := core * framesPerThread
		hi := lo + framesPerThread
		scratch := make([]byte, frameBytes)
		var results []Result
		for f := lo; f < hi; f++ {
			// Decode into the private frame plane.
			w.video.RenderRGB(f, scratch)
			copy(frame.Raw(), scratch)
			for p := 0; p < frameBytes; p += 3 {
				t.Access(frame.Addr(p), 3, mem.Store)
				t.Exec(1)
			}

			// HSV conversion (hue plane) + adaptive dominant-color
			// training: the histogram accumulates across frames.
			raw := frame.Raw()
			for p := 0; p < pixels; p++ {
				t.Access(frame.Addr(p*3), 3, mem.Load)
				hv := rgbToHueBin(raw[p*3], raw[p*3+1], raw[p*3+2])
				hue.Set(t, p, hv)
				hist.Set(t, int(hv), hist.At(t, int(hv))+1)
				t.Exec(4)
			}

			// Dominant hue = histogram peak (trained so far).
			dom := 0
			peak := hist.At(t, 0)
			for b := 1; b < hueBins; b++ {
				if v := hist.At(t, b); v > peak {
					peak, dom = v, b
				}
				t.Exec(1)
			}

			// Playfield segmentation by dominant-color threshold.
			for p := 0; p < pixels; p++ {
				h := int(hue.At(t, p))
				d := h - dom
				if d < 0 {
					d = -d
				}
				if d <= hueTolerance {
					mask.Set(t, p, 1)
				} else {
					mask.Set(t, p, 0)
				}
				t.Exec(2)
			}

			// Connected components: two-pass labeling with union-find.
			next := int32(1)
			for i := 0; i < parent.Len(); i++ {
				parent.Raw()[i] = int32(i) // host reset; equivalences are rebuilt per frame
			}
			for y := 0; y < H; y++ {
				for x := 0; x < W; x++ {
					p := y*W + x
					if mask.At(t, p) == 0 {
						labels.Set(t, p, 0)
						continue
					}
					var left, up int32
					if x > 0 {
						left = labels.At(t, p-1)
					}
					if y > 0 {
						up = labels.At(t, p-W)
					}
					switch {
					case left == 0 && up == 0:
						if int(next) < parent.Len() {
							labels.Set(t, p, next)
							next++
						} else {
							labels.Set(t, p, next-1)
						}
					case left != 0 && up == 0:
						labels.Set(t, p, left)
					case left == 0 && up != 0:
						labels.Set(t, p, up)
					default:
						labels.Set(t, p, left)
						if left != up {
							union(t, parent, left, up)
						}
					}
					t.Exec(2)
				}
			}
			// Second pass: resolve labels, count component sizes and
			// the playfield area.
			sizes := make(map[int32]int, 64)
			area := 0
			for p := 0; p < pixels; p++ {
				l := labels.At(t, p)
				t.Exec(1)
				if l == 0 {
					continue
				}
				root := find(t, parent, l)
				sizes[root]++
				area++
			}
			largest := 0
			for _, s := range sizes {
				if s > largest {
					largest = s
				}
			}

			// Classification from playfield share (and fragment size).
			share := float64(area) / float64(pixels)
			var view datasets.ViewKind
			switch {
			case share >= 0.60:
				view = datasets.ViewGlobal
			case share >= 0.30:
				view = datasets.ViewMedium
			case share >= 0.08:
				view = datasets.ViewCloseUp
			default:
				view = datasets.ViewOutOfView
			}
			_ = largest
			results = append(results, Result{Frame: int32(f), View: view})
		}
		w.perThread[core] = results
		barrier.Wait(t)
		if core == 0 {
			w.Results = w.Results[:0]
			for _, part := range w.perThread {
				w.Results = append(w.Results, part...)
			}
		}
	}), nil
}

// rgbToHueBin converts an RGB pixel to a quantized hue bin. Saturation
// and value gate low-chroma pixels into bin 0 (never playfield).
func rgbToHueBin(r, g, b byte) byte {
	mx := r
	if g > mx {
		mx = g
	}
	if b > mx {
		mx = b
	}
	mn := r
	if g < mn {
		mn = g
	}
	if b < mn {
		mn = b
	}
	c := int(mx) - int(mn)
	if c < 8 || mx < 32 {
		return 0
	}
	var hue int // 0..359
	switch mx {
	case r:
		hue = (60*(int(g)-int(b))/c + 360) % 360
	case g:
		hue = 60*(int(b)-int(r))/c + 120
	default:
		hue = 60*(int(r)-int(g))/c + 240
	}
	bin := hue * (hueBins - 1) / 360
	if bin < 1 {
		bin = 1
	}
	return byte(bin)
}

// find resolves a union-find root with path halving (traced).
func find(t *softsdv.Thread, parent mem.Int32s, x int32) int32 {
	for {
		p := parent.At(t, int(x))
		if p == x {
			return x
		}
		gp := parent.At(t, int(p))
		parent.Set(t, int(x), gp)
		x = gp
		t.Exec(1)
	}
}

// union merges two equivalence classes (traced).
func union(t *softsdv.Thread, parent mem.Int32s, a, b int32) {
	ra, rb := find(t, parent, a), find(t, parent, b)
	if ra != rb {
		if ra < rb {
			parent.Set(t, int(rb), ra)
		} else {
			parent.Set(t, int(ra), rb)
		}
	}
}
