package mds

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

func run(t *testing.T, threads int, scale float64) *Workload {
	t.Helper()
	w := New(workloads.Params{Seed: 51, Scale: scale})
	bus := fsb.NewBus()
	sched, err := softsdv.NewScheduler(softsdv.Config{Cores: threads, Quantum: 20000}, bus)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build(mem.NewSpace(), sched, threads)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(prog); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSummaryShapeAndUniqueness(t *testing.T) {
	w := run(t, 2, 1.0/512)
	if len(w.Summary) != summaryLen {
		t.Fatalf("summary has %d sentences, want %d", len(w.Summary), summaryLen)
	}
	seen := map[int32]bool{}
	for _, s := range w.Summary {
		if seen[s] {
			t.Errorf("sentence %d selected twice (MMR must de-duplicate)", s)
		}
		seen[s] = true
		if s < 0 || int(s) >= w.nSent {
			t.Errorf("sentence index %d out of range", s)
		}
	}
}

// TestQueryBias: the query is drawn from topic 0's vocabulary, so
// query-personalized ranking should overselect topic-0 sentences
// relative to the 1/16 topic share.
func TestQueryBias(t *testing.T) {
	w := run(t, 2, 1.0/512)
	topic0 := 0
	for _, s := range w.Summary {
		doc := w.corpus.DocOf[s]
		if doc%16 == 0 { // topic = doc % topics, topics = 16
			topic0++
		}
	}
	t.Logf("topic-0 sentences in summary: %d/%d", topic0, len(w.Summary))
	if topic0 < len(w.Summary)/4 {
		t.Errorf("summary not biased toward the query topic: %d/%d", topic0, len(w.Summary))
	}
}

// TestRankMassConserved: the personalized PageRank iteration preserves
// probability mass approximately (row-stochastic matrix + restart).
func TestRankMassConserved(t *testing.T) {
	w := run(t, 1, 1.0/512)
	var mass float64
	for _, v := range w.x.Raw() {
		mass += float64(v)
	}
	var mass2 float64
	for _, v := range w.xn.Raw() {
		mass2 += float64(v)
	}
	// One of the two ping-pong buffers holds the final ranks. With a
	// row-normalized (not column-normalized) similarity matrix the
	// iteration is a graph-ranking smoother rather than a strict Markov
	// chain, so mass is only approximately conserved: dangling rows
	// leak and high-in-degree sentences concentrate a little.
	best := mass
	if mass2 > best {
		best = mass2
	}
	if best < 0.5 || best > 1.5 {
		t.Errorf("rank mass %v implausible (want in (0.5, 1.5])", best)
	}
}

func TestThreadInvariance(t *testing.T) {
	s1 := run(t, 1, 1.0/512).Summary
	s4 := run(t, 4, 1.0/512).Summary
	if len(s1) != len(s4) {
		t.Fatalf("summary lengths differ")
	}
	for i := range s1 {
		if s1[i] != s4[i] {
			t.Errorf("summary[%d] differs: %d vs %d", i, s1[i], s4[i])
		}
	}
}

func TestGraphIsSparse(t *testing.T) {
	w := run(t, 1, 1.0/512)
	if w.nnz == 0 {
		t.Fatal("empty similarity graph")
	}
	avgDeg := float64(w.nnz) / float64(w.nSent)
	if avgDeg < 2 || avgDeg > 200 {
		t.Errorf("average degree %.1f implausible for the sparse ranking graph", avgDeg)
	}
}

// digest is the SHA-256 of an array's little-endian bytes.
func digest(v any) string {
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestInputsPinned holds every array Build derives, untraced, from the
// corpus to the digests of the original map-and-merge graph builder:
// the untraced set-up may get faster, but the guest must read the same
// bytes.
func TestInputsPinned(t *testing.T) {
	pins := []struct {
		seed  int64
		scale float64
		want  map[string]string
	}{
		{1, 1.0 / 64, map[string]string{
			"DocOf":        "0f19d06ba46d0f1364f0ae773e3900614e82f64328deb46961f4351345cf969d",
			"QueryTerms":   "2c77a2553dd5ff082e69a811638673c1729e0b4d1954aeb114737ebac84a0f96",
			"QueryWeights": "4f05df05f8da9356bd66425351f166a5f7305b7c805e6900d9ec0f50790c9886",
			"entries":      "f4ba10b1053c6fe53ed1c81e725603bf28a6f703ed9d32efb9fa83fc89d18ef9",
			"ids":          "0986f45f34fac276c06c8dc286492a242b45ac4bf4b3835478198c8b684aa446",
			"q":            "d7ac1fec5c72fd5f049a3faa4a2689890a127b97f76a7fadbf80aed7f11061df",
			"rowptr":       "8b30ea28e8ced55b383212e9f625c79feec6b1b574174bff1b2167f80b8e517a",
			"termIDs":      "0986f45f34fac276c06c8dc286492a242b45ac4bf4b3835478198c8b684aa446",
			"termOff":      "cb69ad55178f5f97e251fdb7d1feb2952ced97737ff6607ca6bd155a5c8f30d7",
			"termWts":      "db131292eee86c0478ad6470bfea7439e87c1ea34f820cb2446d7a3c030b07bf",
			"weights":      "db131292eee86c0478ad6470bfea7439e87c1ea34f820cb2446d7a3c030b07bf",
			"x":            "a8b6038a741235194dff9a3857c393d83dc164822510b4a899da3d96da1bf3fd",
		}},
		{7, 1.0 / 64, map[string]string{
			"DocOf":        "0f19d06ba46d0f1364f0ae773e3900614e82f64328deb46961f4351345cf969d",
			"QueryTerms":   "9fcfd3bd695e5a64bb815fe26d6dc7135f321d492de23cfc2c8c788613de2e56",
			"QueryWeights": "4f05df05f8da9356bd66425351f166a5f7305b7c805e6900d9ec0f50790c9886",
			"entries":      "48c5a0f168f774e6fc6dc0af580c81f150cbc65dd9ed7253b4b3eb5da63bb84b",
			"ids":          "d78ad830afa241b0c60bd776829d617b21af61f15c7246ee5ae3c7033c343daf",
			"q":            "0846083b5214594b67b100e0fe40922b84df79ab409875097a24079e3b064305",
			"rowptr":       "96b55ced5f2f88ec947e9087b1be03f493dcf9aca9b2dfffa1f697695223a73d",
			"termIDs":      "d78ad830afa241b0c60bd776829d617b21af61f15c7246ee5ae3c7033c343daf",
			"termOff":      "db69838838efc4665e4ae028aa6b66fa4eb11457fb5c61d89a6201611be1d3ba",
			"termWts":      "9e49f90b024614d37a52bc6e8d2cd3201289e6e7b1f49f76e6f1d557627a045c",
			"weights":      "9e49f90b024614d37a52bc6e8d2cd3201289e6e7b1f49f76e6f1d557627a045c",
			"x":            "a8b6038a741235194dff9a3857c393d83dc164822510b4a899da3d96da1bf3fd",
		}},
		{1, 1.0 / 16, map[string]string{
			"DocOf":        "6b12ca28c7e5cfed2a0c26cbef9544cf473b2ba5b95da9e6170bd8ee920c1a2c",
			"QueryTerms":   "9d923b00a3e9b0f1a9d28c016cbd72048e580adfe63098ddd237e7f7d2e4c372",
			"QueryWeights": "4f05df05f8da9356bd66425351f166a5f7305b7c805e6900d9ec0f50790c9886",
			"entries":      "16240203501b353657711d5768e5a8648c336261d1f2d98d1c8107343db13284",
			"ids":          "4ababf0747fbdcb13a5fa5b69fb107b375381417910d6fee0ef3fb5a5290789b",
			"q":            "39268bdbc154dbca757003c013e4221c34a63d4e26c4c528bea999b0063f9279",
			"rowptr":       "d68c71862ca2add47e8fd9baacd596b58b5c120fca2fd74a1f2960c48d8e8927",
			"termIDs":      "4ababf0747fbdcb13a5fa5b69fb107b375381417910d6fee0ef3fb5a5290789b",
			"termOff":      "caba915e54dfcd27e65d3eec64cbf3128b53d01931eaff5e1b3cf9a7646e4303",
			"termWts":      "c195f31baab92168fa55c55448208d1b5bcb892d5b9767bfef15890ba11dd16c",
			"weights":      "c195f31baab92168fa55c55448208d1b5bcb892d5b9767bfef15890ba11dd16c",
			"x":            "fe2388bd42782ec5fa45fee0d8e0fe43fbde070811d342adf548a18384d6b268",
		}},
		{7, 1.0 / 16, map[string]string{
			"DocOf":        "6b12ca28c7e5cfed2a0c26cbef9544cf473b2ba5b95da9e6170bd8ee920c1a2c",
			"QueryTerms":   "f85b6a1566d4d81d57933bb791da5625f41e85b41c7e9d5469a9854ea784fa1a",
			"QueryWeights": "8c9c686d5cf7490401ee196f903deeb651f07c228bb291cc3ac0241b2ad8b4b5",
			"entries":      "a72fc518ba9c3f11e2484ac8c052541e0e8445f6edb233cd3aee9edb3d7e4186",
			"ids":          "5dd417a4067b8a7e31d4046f9b93792dcfea0840d8a4af26eba035a3de61bb87",
			"q":            "67b13761a1456d5792144ca2f3a3c87238a7f7fc7fdfd3e6395ef5ad0365ccf9",
			"rowptr":       "06017d527b5c0279bb202c4ea7ab38dc7700ea45a6a233ca374be0ed10a7bbf3",
			"termIDs":      "5dd417a4067b8a7e31d4046f9b93792dcfea0840d8a4af26eba035a3de61bb87",
			"termOff":      "068d83fd99f4798b959223237252d1f9301285b6e82fca4333ba4d6cb85e262c",
			"termWts":      "9a9a95b1216b358b05c27ba1aaaaebaf1847a0d15504a45798bbb5b53fba723e",
			"weights":      "9a9a95b1216b358b05c27ba1aaaaebaf1847a0d15504a45798bbb5b53fba723e",
			"x":            "fe2388bd42782ec5fa45fee0d8e0fe43fbde070811d342adf548a18384d6b268",
		}},
	}
	for _, pin := range pins {
		w := New(workloads.Params{Seed: pin.seed, Scale: pin.scale})
		sched, err := softsdv.NewScheduler(softsdv.Config{Cores: 1}, fsb.NewBus())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Build(mem.NewSpace(), sched, 1); err != nil {
			t.Fatal(err)
		}
		c := w.corpus
		arrays := []struct {
			name string
			v    any
		}{
			{"ids", slices.Concat(c.Sentences...)},
			{"weights", slices.Concat(c.Weights...)},
			{"DocOf", c.DocOf},
			{"QueryTerms", c.QueryTerms},
			{"QueryWeights", c.QueryWeights},
			{"rowptr", w.rowptr.Raw()},
			{"entries", w.entries.Raw()},
			{"q", w.q.Raw()},
			{"x", w.x.Raw()},
			{"termOff", w.termOff.Raw()},
			{"termIDs", w.termIDs.Raw()},
			{"termWts", w.termWts.Raw()},
		}
		for _, a := range arrays {
			if d := digest(a.v); d != pin.want[a.name] {
				t.Errorf("seed %d scale 1/%g: %s digest %s, pinned %s", pin.seed, 1/pin.scale, a.name, d, pin.want[a.name])
			}
		}
	}
}

func TestMetadata(t *testing.T) {
	w := New(workloads.Params{Seed: 1})
	if w.Name() != "MDS" {
		t.Errorf("name = %q", w.Name())
	}
	if w.Category() != workloads.SharedWS {
		t.Error("MDS must be in the shared-working-set category")
	}
}
