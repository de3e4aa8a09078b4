package datasets

// Synthetic video for the SHOT and VIEWTYPE workloads: a frame stream
// with the MPEG-2 dimensions used in the paper (720×576), organized into
// shots separated by hard cuts, with per-shot color statistics and — for
// the sports footage VIEWTYPE expects — a dominant "playfield" region
// whose on-screen share varies with the camera's view type.

// FrameSpec describes a synthetic video.
type FrameSpec struct {
	Width, Height int
	// Frames is the total frame count.
	Frames int
	// MeanShotLen is the average frames per shot.
	MeanShotLen int
}

// ViewKind is the ground-truth view type of a shot (VIEWTYPE classes).
type ViewKind uint8

// The four view types distinguished by the paper's workload.
const (
	ViewGlobal ViewKind = iota
	ViewMedium
	ViewCloseUp
	ViewOutOfView
)

// String names the view kind.
func (v ViewKind) String() string {
	switch v {
	case ViewGlobal:
		return "global"
	case ViewMedium:
		return "medium"
	case ViewCloseUp:
		return "close-up"
	default:
		return "out-of-view"
	}
}

// Shot is one ground-truth shot.
type Shot struct {
	Start, End int // frame range [Start, End)
	View       ViewKind
	// baseR/G/B are the shot's color statistics center.
	baseR, baseG, baseB uint8
	// fieldShare is the fraction of the frame covered by playfield.
	fieldShare float64
	noiseSeed  int64
}

// Video generates frames lazily: holding a 200 MB clip in memory is
// unnecessary because the workloads stream it frame by frame, exactly as
// the decoders in the paper did.
type Video struct {
	Spec  FrameSpec
	Shots []Shot
}

// GenVideo plans the shot structure of a synthetic clip.
func GenVideo(seed int64, spec FrameSpec) *Video {
	r := Rng(seed)
	v := &Video{Spec: spec}
	frame := 0
	for frame < spec.Frames {
		length := 1 + r.Intn(2*spec.MeanShotLen-1)
		end := frame + length
		if end > spec.Frames {
			end = spec.Frames
		}
		view := ViewKind(r.Intn(4))
		share := map[ViewKind]float64{
			ViewGlobal:    0.75,
			ViewMedium:    0.45,
			ViewCloseUp:   0.15,
			ViewOutOfView: 0.0,
		}[view]
		v.Shots = append(v.Shots, Shot{
			Start: frame, End: end, View: view,
			baseR:      uint8(40 + r.Intn(180)),
			baseG:      uint8(40 + r.Intn(180)),
			baseB:      uint8(40 + r.Intn(180)),
			fieldShare: share + float64(0.05*r.Float64()),
			noiseSeed:  r.Int63(),
		})
		frame = end
	}
	return v
}

// ShotOf returns the shot containing the given frame.
func (v *Video) ShotOf(frame int) *Shot {
	lo, hi := 0, len(v.Shots)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v.Shots[mid].End <= frame {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &v.Shots[lo]
}

// IsCut reports whether frame is the first frame of a new shot
// (ground truth for SHOT's detector).
func (v *Video) IsCut(frame int) bool {
	if frame == 0 {
		return false
	}
	return v.ShotOf(frame).Start == frame
}

// RenderRGB fills dst (len = 3*W*H, packed RGB) with the given frame.
// Within a shot, frames differ by deterministic pixel noise; across a
// cut, the base color jumps. The playfield (a green-ish horizontal band
// whose height follows the shot's fieldShare) occupies the lower part of
// the frame, as in sports footage.
func (v *Video) RenderRGB(frame int, dst []byte) {
	s := v.ShotOf(frame)
	w, h := v.Spec.Width, v.Spec.Height
	fieldTop := h - int(float64(h)*s.fieldShare)
	// xorshift noise keyed by shot and frame: cheap and deterministic.
	state := uint64(s.noiseSeed) ^ (uint64(frame) * 0x9E3779B97F4A7C15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for y := 0; y < h; y++ {
		rowIsField := y >= fieldTop
		base := y * w * 3
		for x := 0; x < w; x++ {
			n := next()
			jr := uint8(n & 15)
			jg := uint8((n >> 4) & 15)
			jb := uint8((n >> 8) & 15)
			var r, g, b uint8
			if rowIsField {
				// Playfield: dominant green hue.
				r, g, b = 30+jr, 150+jg, 40+jb
			} else {
				r, g, b = s.baseR+jr, s.baseG+jg, s.baseB+jb
			}
			dst[base+x*3+0] = r
			dst[base+x*3+1] = g
			dst[base+x*3+2] = b
		}
	}
}
