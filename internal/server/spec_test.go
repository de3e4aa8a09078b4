package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

const minimalSpec = `{
	"workload": "snp",
	"seed": 7,
	"grids": [[{"size_bytes": 262144, "line_size": 64, "assoc": 8}]]
}`

func TestDecodeSpecDefaults(t *testing.T) {
	spec, err := DecodeSpec(strings.NewReader(minimalSpec))
	if err != nil {
		t.Fatalf("DecodeSpec: %v", err)
	}
	if spec.Workload != "SNP" {
		t.Errorf("workload not case-folded: %q", spec.Workload)
	}
	if spec.Scale != workloads.DefaultScale {
		t.Errorf("scale default = %v, want %v", spec.Scale, workloads.DefaultScale)
	}
	if spec.Platform.Threads != 8 {
		t.Errorf("threads default = %d, want 8", spec.Platform.Threads)
	}
	if spec.Platform.Quantum != softsdv.DefaultQuantum {
		t.Errorf("quantum default = %d, want %d", spec.Platform.Quantum, softsdv.DefaultQuantum)
	}
	if got := spec.Grids[0][0].Name; got != "llc-262144B-64B-8w" {
		t.Errorf("config name default = %q", got)
	}
	if spec.Grids[0][0].Repl != "lru" {
		t.Errorf("repl default = %q, want lru", spec.Grids[0][0].Repl)
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	cases := map[string]string{
		"empty":           `{}`,
		"unknown field":   `{"workload":"SNP","grids":[[{"size_bytes":65536,"line_size":64,"assoc":4}]],"bogus":1}`,
		"trailing data":   minimalSpec + ` {"again": true}`,
		"bad workload":    `{"workload":"NOPE","grids":[[{"size_bytes":65536,"line_size":64,"assoc":4}]]}`,
		"no grids":        `{"workload":"SNP"}`,
		"empty grid":      `{"workload":"SNP","grids":[[]]}`,
		"bad repl":        `{"workload":"SNP","grids":[[{"size_bytes":65536,"line_size":64,"assoc":4,"repl":"mru"}]]}`,
		"bad geometry":    `{"workload":"SNP","grids":[[{"size_bytes":65537,"line_size":64,"assoc":4}]]}`,
		"threads too big": `{"workload":"SNP","platform":{"threads":4096},"grids":[[{"size_bytes":65536,"line_size":64,"assoc":4}]]}`,
		"threads 129":     `{"workload":"SNP","platform":{"threads":129},"grids":[[{"size_bytes":65536,"line_size":64,"assoc":4}]]}`,
		"scale too big":   `{"workload":"SNP","scale":100,"grids":[[{"size_bytes":65536,"line_size":64,"assoc":4}]]}`,
		"not json":        `hello`,
	}
	for name, body := range cases {
		if _, err := DecodeSpec(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

// TestDecodeSpecQuantumBound: the DEX slice is bounded at decode, so a
// spec can never make a slice buffer ask for more memory than exists.
// Only the bound's two sides are decoded; neither spec is run.
func TestDecodeSpecQuantumBound(t *testing.T) {
	body := func(q uint64) string {
		return fmt.Sprintf(`{"workload":"SNP","platform":{"quantum":%d},"grids":[[{"size_bytes":65536,"line_size":64,"assoc":4}]]}`, q)
	}
	spec, err := DecodeSpec(strings.NewReader(body(MaxQuantum)))
	if err != nil || spec.Platform.Quantum != MaxQuantum {
		t.Errorf("quantum %d: spec %+v, error %v; want it accepted", MaxQuantum, spec, err)
	}
	_, err = DecodeSpec(strings.NewReader(body(MaxQuantum + 1)))
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("quantum %d: error %v, want one naming the quantum", MaxQuantum+1, err)
	}
}

func TestSpecHashIdentity(t *testing.T) {
	base := func() *SweepSpec {
		s, err := DecodeSpec(strings.NewReader(minimalSpec))
		if err != nil {
			t.Fatalf("DecodeSpec: %v", err)
		}
		return s
	}
	h := base().Hash()

	// Explicit defaults hash like omitted ones.
	explicit := `{
		"workload": "SNP", "seed": 7, "scale": ` + "0.0625" + `,
		"platform": {"threads": 8},
		"grids": [[{"size_bytes": 262144, "line_size": 64, "assoc": 8, "repl": "lru"}]]
	}`
	se, err := DecodeSpec(strings.NewReader(explicit))
	if err != nil {
		t.Fatalf("explicit spec: %v", err)
	}
	if se.Hash() != h {
		t.Errorf("explicit defaults hash %s, zero defaults hash %s", se.Hash(), h)
	}
	// Identity fields change the hash.
	for name, mut := range map[string]func(*SweepSpec){
		"seed":    func(s *SweepSpec) { s.Seed++ },
		"threads": func(s *SweepSpec) { s.Platform.Threads = 16 },
		"grid":    func(s *SweepSpec) { s.Grids[0][0].Assoc = 4 },
	} {
		s := base()
		mut(s)
		if s.Hash() == h {
			t.Errorf("%s mutation kept the hash", name)
		}
	}
}

// TestSpecHashLiterals pins the result-cache key of three specs, so a
// change that moves every hash at once (and so orphans every cached
// result) cannot pass TestSpecHashIdentity unnoticed.
func TestSpecHashLiterals(t *testing.T) {
	for want, body := range map[string]string{
		"f4adefeb6d8f2b836307edcdb54c2f9e": minimalSpec,
		"e093d2564216f4d1bef1f4cd460a646f": `{"workload": "SHOT", "seed": 1, "sampling": "fast",
			"grids": [[{"size_bytes": 262144, "line_size": 64, "assoc": 8}]]}`,
		"b9e0e044e50eb3d5be5c40d55fd5a604": `{"workload": "PLSA", "seed": 3, "scale": 0.002, "platform": {"threads": 4},
			"grids": [[{"size_bytes": 65536, "line_size": 64, "assoc": 8},
			           {"size_bytes": 65536, "line_size": 64, "assoc": 8, "repl": "fifo"}],
			          [{"size_bytes": 131072, "line_size": 256, "assoc": 4, "sector_size": 64}]]}`,
	} {
		s, err := DecodeSpec(strings.NewReader(body))
		if err != nil {
			t.Fatalf("DecodeSpec: %v", err)
		}
		if got := s.Hash(); got != want {
			t.Errorf("hash %s, want %s for %s", got, want, body)
		}
	}
}

// TestRetiredKnobsAreRejected: "shards", "batch" and "engine" are no
// longer spec fields. A body naming one is refused with a 400 that
// names it, not silently ignored.
func TestRetiredKnobsAreRejected(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	for _, field := range []string{"shards", "batch", "engine"} {
		body := strings.Replace(minimalSpec, `"seed": 7,`, `"seed": 7, "`+field+`": 2,`, 1)
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(reply.Error, `"`+field+`"`) {
			t.Errorf("spec naming %q: %d %q (%v), want a 400 that names the field", field, resp.StatusCode, reply.Error, err)
		}
	}
}

// FuzzSpecDecode is the decoder's safety property: arbitrary bytes
// either decode into a spec that validates clean, or are rejected with
// an error — never a panic (the HTTP layer turns every error into 400).
func FuzzSpecDecode(f *testing.F) {
	f.Add([]byte(minimalSpec))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":"FIMI","seed":-1,"scale":1e308,"grids":[[{"size_bytes":18446744073709551615,"line_size":0,"assoc":-1}]]}`))
	f.Add([]byte(`{"workload":"SNP","grids":[[{"size_bytes":65536,"line_size":64,"assoc":4,"repl":"fifo","sector_size":128}]],"engine":"oracle"}`))
	f.Add([]byte(`{"workload":"SNP","platform":{"quantum":1099511627776},"grids":[[{"size_bytes":65536,"line_size":64,"assoc":4}]]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted spec must be internally consistent: validation
		// holds, normalization is idempotent, and the hash is stable.
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("accepted spec fails Validate: %v", verr)
		}
		h := spec.Hash()
		spec.Normalize()
		if spec.Hash() != h {
			t.Fatalf("Normalize not idempotent: hash %s -> %s", h, spec.Hash())
		}
	})
}
