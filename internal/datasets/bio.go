package datasets

// Bioinformatics inputs: SNP haplotypes, micro-array expression data,
// and nucleotide sequences.

// SNPMatrix is a sequences × sites haplotype matrix with 0/1 alleles.
// Sites are generated in linkage-disequilibrium blocks: within a block,
// alleles are correlated, giving the Bayesian-network learner real
// structure to find (and realistic column-scan behaviour).
type SNPMatrix struct {
	Sequences int
	Sites     int
	// Alleles is row-major: Alleles[seq*Sites+site].
	Alleles []int8
	// BlockSize is the LD block width used during generation.
	BlockSize int
}

// GenSNP builds a haplotype matrix. Correlation within a block decays
// with distance from the block's founder site.
func GenSNP(seed int64, sequences, sites, blockSize int) *SNPMatrix {
	if blockSize < 1 {
		blockSize = 8
	}
	r := Rng(seed)
	m := &SNPMatrix{
		Sequences: sequences,
		Sites:     sites,
		Alleles:   make([]int8, sequences*sites),
		BlockSize: blockSize,
	}
	for s := 0; s < sequences; s++ {
		row := m.Alleles[s*sites : (s+1)*sites]
		for b := 0; b < sites; b += blockSize {
			founder := int8(r.Intn(2))
			end := b + blockSize
			if end > sites {
				end = sites
			}
			for j := b; j < end; j++ {
				// Flip probability grows with distance from founder.
				pFlip := 0.05 + float64(0.02*float64(j-b))
				if r.Float64() < pFlip {
					row[j] = 1 - founder
				} else {
					row[j] = founder
				}
			}
		}
	}
	return m
}

// Microarray is a samples × genes expression matrix with binary class
// labels. A subset of genes is informative: their expression is shifted
// by class, so SVM-RFE has a real signal to recover.
type Microarray struct {
	Samples int
	Genes   int
	// X is row-major: X[sample*Genes+gene], standardized.
	X []float64
	// Y holds class labels in {-1,+1}.
	Y []float64
	// Informative lists the indices of the signal-carrying genes.
	Informative []int
}

// GenMicroarray builds an expression matrix with the given fraction of
// informative genes (e.g. 0.02 for a cancer-style dataset).
func GenMicroarray(seed int64, samples, genes int, informativeFrac float64) *Microarray {
	r := Rng(seed)
	m := &Microarray{
		Samples: samples,
		Genes:   genes,
		X:       make([]float64, samples*genes),
		Y:       make([]float64, samples),
	}
	nInf := int(float64(genes) * informativeFrac)
	if nInf < 1 {
		nInf = 1
	}
	perm := r.Perm(genes)
	m.Informative = append([]int(nil), perm[:nInf]...)
	isInf := make(map[int]bool, nInf)
	for _, g := range m.Informative {
		isInf[g] = true
	}
	for s := 0; s < samples; s++ {
		y := float64(1)
		if s%2 == 1 {
			y = -1
		}
		m.Y[s] = y
		row := m.X[s*genes : (s+1)*genes]
		for g := 0; g < genes; g++ {
			v := r.NormFloat64()
			if isInf[g] {
				v += float64(1.5 * y)
			}
			row[g] = v
		}
	}
	return m
}

// Nucleotides generates a random sequence over ACGU (as 0..3 bytes).
func Nucleotides(seed int64, n int) []byte {
	r := Rng(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Intn(4))
	}
	return out
}

// Mutate returns a copy of seq with the given substitution and indel
// rates, for building homologous pairs (PLSA alignment inputs).
func Mutate(seed int64, seq []byte, subRate, indelRate float64) []byte {
	r := Rng(seed)
	out := make([]byte, 0, len(seq))
	for _, c := range seq {
		switch {
		case r.Float64() < indelRate/2:
			// deletion: skip
		case r.Float64() < indelRate/2:
			// insertion
			out = append(out, byte(r.Intn(4)), c)
		case r.Float64() < subRate:
			out = append(out, byte((int(c)+1+r.Intn(3))%4))
		default:
			out = append(out, c)
		}
	}
	return out
}

// PlantHomologs embeds copies of motif (with mutations) into db at
// roughly uniform spacing, returning the positions used. RSEARCH then
// has true homologs to find.
func PlantHomologs(seed int64, db []byte, motif []byte, count int) []int {
	if count <= 0 || len(motif) == 0 || len(db) < len(motif)+2 {
		return nil
	}
	r := Rng(seed)
	positions := make([]int, 0, count)
	stride := len(db) / (count + 1)
	if stride < len(motif) {
		stride = len(motif)
	}
	for i := 1; i <= count; i++ {
		pos := i*stride - len(motif)/2
		if pos+len(motif) > len(db) {
			break
		}
		mutated := Mutate(r.Int63(), motif, 0.08, 0.005)
		if len(mutated) > len(motif) {
			mutated = mutated[:len(motif)]
		}
		copy(db[pos:], mutated)
		positions = append(positions, pos)
	}
	return positions
}
