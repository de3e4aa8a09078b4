package cmpmem_test

import (
	"os"
	"strings"
	"testing"

	"cmpmem"
)

// TestExperimentsTable1: EXPERIMENTS.md's Table 1 is `cosim table1` at
// the default scale, row for row, so the document cannot drift from the
// binary.
func TestExperimentsTable1(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## Table 1")
	section, _, _ = strings.Cut(section, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| Workload ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	want := cmpmem.Table1(nil, cmpmem.Params{Seed: 1, Scale: cmpmem.DefaultScale})
	if len(rows) != len(want) {
		t.Fatalf("EXPERIMENTS.md's Table 1 has %d rows, cosim table1 prints %d", len(rows), len(want))
	}
	for i, w := range want {
		if r := rows[i]; len(r) != 4 || r[0] != w.Workload || r[2] != w.Parameters || r[3] != w.DataSize {
			t.Errorf("EXPERIMENTS.md row %v, cosim table1 prints %q | %q | %q", r, w.Workload, w.Parameters, w.DataSize)
		}
	}
}
