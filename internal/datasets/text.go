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
	c := &Corpus{Vocab: vocab}
	global := vocab / 4
	perTopic := (vocab - global) / topics
	zipfGlobal := randZipf(seed^0x7e97, global)
	zipfTopic := randZipf(seed^0x3b1d, perTopic)
	topicBase := make([]int, topics)
	for t := range topicBase {
		topicBase[t] = global + perTopic*t
	}
	for d := 0; d < docs; d++ {
		topic := d % topics
		for s := 0; s < sentencesPerDoc; s++ {
			ids, ws := tally(termsPerSentence, func() int32 {
				if r.Float64() < 0.6 {
					// Topic-local term.
					return int32(topicBase[topic] + zipfTopic())
				}
				return int32(zipfGlobal())
			})
			var norm float64
			for _, w := range ws {
				norm += float64(w) * float64(w)
			}
			norm = math.Sqrt(norm)
			for i := range ws {
				ws[i] = float32(float64(ws[i]) / norm)
			}
			c.Sentences = append(c.Sentences, ids)
			c.Weights = append(c.Weights, ws)
			c.DocOf = append(c.DocOf, int32(d))
		}
	}
	// Query: a few terms from topic 0's local range.
	c.QueryTerms, c.QueryWeights = tally(8, func() int32 { return int32(topicBase[0] + zipfTopic()) })
	return c
}

// tally draws k term ids and returns the distinct ones in ascending
// order with how often each was drawn (insertion sort and a linear
// lookup: term vectors are tiny).
func tally(k int, draw func() int32) ([]int32, []float32) {
	ids, counts := make([]int32, 0, k), make([]float32, 0, k)
	for ; k > 0; k-- {
		id := draw()
		i := 0
		for i < len(ids) && ids[i] < id {
			i++
		}
		if i < len(ids) && ids[i] == id {
			counts[i]++
			continue
		}
		ids, counts = append(ids, 0), append(counts, 0)
		copy(ids[i+1:], ids[i:])
		copy(counts[i+1:], counts[i:])
		ids[i], counts[i] = id, 1
	}
	return ids, counts
}
