// Dramcache runs the study behind the paper's central design
// conclusion — "large DRAM caches can be useful to address their large
// working-set sizes" — with the timing model: every workload on a
// 16-core CMP, with no LLC, with a small fast SRAM LLC, and with a
// large slow DRAM LLC.
package main

import (
	"fmt"
	"log"

	"cmpmem"
)

func main() {
	rows, err := cmpmem.DRAMCacheStudy(nil, cmpmem.Params{Seed: 5}, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Cycle gain over no LLC (16 cores):")
	fmt.Printf("%-10s %14s %16s %14s\n", "workload", "8MB SRAM LLC", "256MB DRAM LLC", "DRAM missrate")
	for _, r := range rows {
		verdict := ""
		switch {
		case r.GainDRAMPct > r.GainSRAMPct+5:
			verdict = "<- wants the DRAM cache"
		case r.GainDRAMPct < -1:
			verdict = "<- DRAM hit slower than an overlapped stream miss"
		}
		fmt.Printf("%-10s %+13.1f%% %+15.1f%% %13.1f%%  %s\n",
			r.Workload, r.GainSRAMPct, r.GainDRAMPct, 100*r.L3MissRateDRAM, verdict)
	}
	fmt.Println("\nThe paper projected 5 of 8 workloads would need DRAM-class LLC capacity")
	fmt.Println("at high core counts; compare with `go run ./cmd/cosim proj128`.")
}
