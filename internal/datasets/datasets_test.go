package datasets

import (
	"testing"
	"testing/quick"
)

func TestSNPDeterministicAndCorrelated(t *testing.T) {
	a := GenSNP(5, 200, 64, 8)
	b := GenSNP(5, 200, 64, 8)
	for i := range a.Alleles {
		if a.Alleles[i] != b.Alleles[i] {
			t.Fatal("same seed produced different matrices")
		}
	}
	// Within-block adjacent sites must agree far more often than
	// across-block distant sites.
	agree := func(s1, s2 int) float64 {
		n := 0
		for seq := 0; seq < a.Sequences; seq++ {
			if a.Alleles[seq*a.Sites+s1] == a.Alleles[seq*a.Sites+s2] {
				n++
			}
		}
		return float64(n) / float64(a.Sequences)
	}
	near := agree(8, 9)   // same block
	far := agree(8, 8+32) // different block
	if near < far+0.1 {
		t.Errorf("no LD structure: near-agreement %.2f, far %.2f", near, far)
	}
}

func TestSNPAllelesBinary(t *testing.T) {
	m := GenSNP(1, 50, 20, 8)
	for _, v := range m.Alleles {
		if v != 0 && v != 1 {
			t.Fatalf("non-binary allele %d", v)
		}
	}
}

func TestMicroarrayInformativeSignal(t *testing.T) {
	m := GenMicroarray(9, 100, 500, 0.04)
	if len(m.Informative) != 20 {
		t.Fatalf("informative count = %d, want 20", len(m.Informative))
	}
	// Class-conditional mean of an informative gene must separate; of a
	// random other gene, not.
	meanByClass := func(g int) (pos, neg float64) {
		var np, nn int
		for s := 0; s < m.Samples; s++ {
			v := m.X[s*m.Genes+g]
			if m.Y[s] > 0 {
				pos += v
				np++
			} else {
				neg += v
				nn++
			}
		}
		return pos / float64(np), neg / float64(nn)
	}
	pos, neg := meanByClass(m.Informative[0])
	if pos-neg < 1.0 {
		t.Errorf("informative gene separation %.2f too weak", pos-neg)
	}
	if len(m.Y) != m.Samples {
		t.Error("label length mismatch")
	}
}

func TestNucleotidesRange(t *testing.T) {
	seq := Nucleotides(3, 1000)
	counts := [4]int{}
	for _, b := range seq {
		if b > 3 {
			t.Fatalf("base %d out of range", b)
		}
		counts[b]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("base %d never generated", i)
		}
	}
}

// kmerSet returns the set of 6-mers of a sequence (shift-invariant
// similarity basis: positional identity is meaningless under indels).
func kmerSet(seq []byte) map[uint32]bool {
	out := map[uint32]bool{}
	var h uint32
	for i, b := range seq {
		h = (h<<2 | uint32(b)) & (1<<12 - 1)
		if i >= 5 {
			out[h] = true
		}
	}
	return out
}

// kmerOverlap returns |A∩B| / |A|.
func kmerOverlap(a, b map[uint32]bool) float64 {
	if len(a) == 0 {
		return 0
	}
	n := 0
	for k := range a {
		if b[k] {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

func TestMutatePreservesKmerContent(t *testing.T) {
	seq := Nucleotides(4, 2000)
	mut := Mutate(5, seq, 0.1, 0.02)
	if len(mut) < len(seq)*9/10 || len(mut) > len(seq)*11/10 {
		t.Errorf("mutated length %d far from original %d", len(mut), len(seq))
	}
	ov := kmerOverlap(kmerSet(seq), kmerSet(mut))
	random := Nucleotides(99, 2000)
	base := kmerOverlap(kmerSet(seq), kmerSet(random))
	if ov < base+0.05 {
		t.Errorf("mutation destroyed homology: overlap %.2f vs random baseline %.2f", ov, base)
	}
}

func TestPlantHomologs(t *testing.T) {
	db := Nucleotides(6, 1<<16)
	motif := Nucleotides(7, 64)
	pos := PlantHomologs(8, db, motif, 10)
	if len(pos) != 10 {
		t.Fatalf("planted %d homologs, want 10", len(pos))
	}
	mk := kmerSet(motif)
	strong := 0
	for _, p := range pos {
		if kmerOverlap(mk, kmerSet(db[p:p+len(motif)])) > 0.3 {
			strong++
		}
	}
	// Mutation occasionally degrades a copy; most must stay findable.
	if strong < 7 {
		t.Errorf("only %d/10 planted homologs retain k-mer similarity", strong)
	}
}

func TestPlantHomologsEdgeCases(t *testing.T) {
	if got := PlantHomologs(1, make([]byte, 10), make([]byte, 64), 5); got != nil {
		t.Error("planting into a too-small db should yield nothing")
	}
	if got := PlantHomologs(1, make([]byte, 1000), nil, 5); got != nil {
		t.Error("empty motif should yield nothing")
	}
}

func TestTransactionsShape(t *testing.T) {
	db := GenTransactions(11, 500, 200, 8)
	if db.Count() != 500 {
		t.Fatalf("count = %d, want 500", db.Count())
	}
	if db.Offsets[len(db.Offsets)-1] != int32(len(db.Items)) {
		t.Error("final offset != item count")
	}
	totalLen := 0
	for i := 0; i < db.Count(); i++ {
		tx := db.Get(i)
		totalLen += len(tx)
		seen := map[int32]bool{}
		for _, it := range tx {
			if it < 0 || int(it) >= db.NumItems {
				t.Fatalf("item %d out of range", it)
			}
			if seen[it] {
				t.Fatalf("tx %d contains duplicate item %d", i, it)
			}
			seen[it] = true
		}
	}
	mean := float64(totalLen) / float64(db.Count())
	if mean < 4 || mean > 20 {
		t.Errorf("mean transaction length %.1f implausible for meanLen 8", mean)
	}
}

func TestTransactionsSkew(t *testing.T) {
	db := GenTransactions(13, 2000, 500, 8)
	counts := make([]int, db.NumItems)
	for _, it := range db.Items {
		counts[it]++
	}
	// Head items must be much more popular than tail items.
	var head, tail int
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	for i := 400; i < 410; i++ {
		tail += counts[i]
	}
	if head < 5*tail {
		t.Errorf("item popularity not skewed: head=%d tail=%d", head, tail)
	}
}

func TestCorpusShape(t *testing.T) {
	c := GenCorpus(17, 8, 10, 12, 4000, 4)
	if len(c.Sentences) != 80 {
		t.Fatalf("sentences = %d, want 80", len(c.Sentences))
	}
	for i, s := range c.Sentences {
		if len(s) == 0 || len(s) != len(c.Weights[i]) {
			t.Fatalf("sentence %d malformed", i)
		}
		var norm float64
		for j := 1; j < len(s); j++ {
			if s[j] <= s[j-1] {
				t.Fatalf("sentence %d term ids not strictly ascending", i)
			}
		}
		for _, w := range c.Weights[i] {
			norm += float64(w) * float64(w)
		}
		if norm < 0.99 || norm > 1.01 {
			t.Fatalf("sentence %d weights not normalized: %f", i, norm)
		}
	}
	if len(c.QueryTerms) == 0 || len(c.QueryTerms) != len(c.QueryWeights) {
		t.Error("malformed query")
	}
}

func TestVideoShotStructure(t *testing.T) {
	v := GenVideo(19, FrameSpec{Width: 32, Height: 24, Frames: 200, MeanShotLen: 10})
	if len(v.Shots) == 0 {
		t.Fatal("no shots planned")
	}
	prevEnd := 0
	for i, s := range v.Shots {
		if s.Start != prevEnd {
			t.Fatalf("shot %d starts at %d, want %d (contiguous)", i, s.Start, prevEnd)
		}
		if s.End <= s.Start {
			t.Fatalf("shot %d empty", i)
		}
		prevEnd = s.End
	}
	if prevEnd != 200 {
		t.Fatalf("shots cover %d frames, want 200", prevEnd)
	}
	// ShotOf and IsCut agree with the plan.
	for _, s := range v.Shots {
		if v.ShotOf(s.Start) != &v.Shots[indexOf(v, s.Start)] {
			t.Fatal("ShotOf disagrees with plan")
		}
		if s.Start > 0 && !v.IsCut(s.Start) {
			t.Errorf("frame %d should be a cut", s.Start)
		}
		if v.IsCut(s.Start+(s.End-s.Start)/2) && (s.End-s.Start) > 1 {
			t.Errorf("mid-shot frame flagged as cut")
		}
	}
}

func indexOf(v *Video, frame int) int {
	for i, s := range v.Shots {
		if frame >= s.Start && frame < s.End {
			return i
		}
	}
	return -1
}

func TestVideoRenderDeterministic(t *testing.T) {
	v := GenVideo(23, FrameSpec{Width: 16, Height: 12, Frames: 10, MeanShotLen: 4})
	a := make([]byte, 16*12*3)
	b := make([]byte, 16*12*3)
	v.RenderRGB(3, a)
	v.RenderRGB(3, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("rendering not deterministic")
		}
	}
}

func TestVideoPlayfieldIsGreen(t *testing.T) {
	v := GenVideo(29, FrameSpec{Width: 16, Height: 16, Frames: 40, MeanShotLen: 40})
	// Force a known global shot for the check.
	v.Shots[0].fieldShare = 0.5
	buf := make([]byte, 16*16*3)
	v.RenderRGB(0, buf)
	// Bottom rows are playfield: green-dominant.
	p := (15*16 + 8) * 3
	if !(buf[p+1] > buf[p] && buf[p+1] > buf[p+2]) {
		t.Errorf("playfield pixel not green-dominant: %v", buf[p:p+3])
	}
	// Top rows follow the shot's base color distribution (any hue).
}

// TestRngIndependence: generators with different seeds differ.
func TestRngIndependence(t *testing.T) {
	check := func(s1, s2 int64) bool {
		if s1 == s2 {
			return true
		}
		a := Nucleotides(s1, 64)
		b := Nucleotides(s2, 64)
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		return same < 50 // different seeds should not be near-identical
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
