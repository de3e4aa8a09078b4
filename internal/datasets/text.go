package datasets

import "math"

// Document corpora for multi-document summarization (MDS). Sentences
// are term-frequency vectors over a Zipf vocabulary; documents cluster
// around topics so the similarity graph has genuine block structure,
// which is what makes the ranking matrix large and sparse.

// Corpus is a collection of sentence vectors grouped into documents.
type Corpus struct {
	// Vocab is the vocabulary size.
	Vocab int
	// Sentences holds, for each sentence, its sorted term ids.
	Sentences [][]int32
	// Weights holds the matching term frequencies.
	Weights [][]float32
	// DocOf maps sentence index to document index.
	DocOf []int32
	// Query is the user query's term vector (ids + weights).
	QueryTerms   []int32
	QueryWeights []float32
}

// GenCorpus builds docs documents of sentencesPerDoc sentences each,
// termsPerSentence terms per sentence, over a vocabulary of vocab terms
// split across topics. The first quarter of the vocabulary is a shared
// "stopword" range every topic draws from; the rest is partitioned into
// per-topic ranges, so topical similarity is genuine rather than an
// artifact of Zipf head terms.
func GenCorpus(seed int64, docs, sentencesPerDoc, termsPerSentence, vocab, topics int) *Corpus {
	r := Rng(seed)
	if topics < 1 {
		topics = 1
	}
	n := docs * sentencesPerDoc
	c := &Corpus{Vocab: vocab, Sentences: make([][]int32, n), Weights: make([][]float32, n), DocOf: make([]int32, n)}
	global := vocab / 4
	perTopic := (vocab - global) / topics
	zipfGlobal := randZipf(seed^0x7e97, global)
	zipfTopic := randZipf(seed^0x3b1d, perTopic)
	topicBase := make([]int, topics)
	for t := range topicBase {
		topicBase[t] = global + perTopic*t
	}
	// Two slabs hold every sentence's ids and weights (tally caps each cut).
	idSlab, wtSlab := make([]int32, n*termsPerSentence), make([]float32, n*termsPerSentence)
	for d := 0; d < docs; d++ {
		topic := d % topics
		for s := 0; s < sentencesPerDoc; s++ {
			ids, ws := tally(idSlab[:termsPerSentence], wtSlab[:termsPerSentence], func() int32 {
				if r.Float64() < 0.6 {
					// Topic-local term.
					return int32(topicBase[topic] + zipfTopic())
				}
				return int32(zipfGlobal())
			})
			idSlab, wtSlab = idSlab[len(ids):], wtSlab[len(ids):]
			var norm float64
			for _, w := range ws {
				norm += float64(float64(w) * float64(w))
			}
			norm = math.Sqrt(norm)
			for i := range ws {
				ws[i] = float32(float64(ws[i]) / norm)
			}
			i := d*sentencesPerDoc + s
			c.Sentences[i], c.Weights[i], c.DocOf[i] = ids, ws, int32(d)
		}
	}
	// Query: a few terms from topic 0's local range.
	c.QueryTerms, c.QueryWeights = tally(make([]int32, 8), make([]float32, 8), func() int32 { return int32(topicBase[0] + zipfTopic()) })
	return c
}

// tally makes len(ids) draws and returns the distinct ids in ascending
// order and how often each was drawn, in place in ids and counts and
// capped at their length (insertion sort: term vectors are tiny).
func tally(ids []int32, counts []float32, draw func() int32) ([]int32, []float32) {
	m := 0
	for range ids {
		id := draw()
		i := 0
		for i < m && ids[i] < id {
			i++
		}
		if i < m && ids[i] == id {
			counts[i]++
			continue
		}
		for j := m; j > i; j-- {
			ids[j], counts[j] = ids[j-1], counts[j-1]
		}
		ids[i], counts[i] = id, 1
		m++
	}
	return ids[:m:m], counts[:m:m]
}
