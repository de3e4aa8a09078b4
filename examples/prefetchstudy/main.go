// Prefetchstudy reproduces the paper's Figure 8 experiment for a subset
// of workloads: the performance gain from enabling a stride-based
// hardware prefetcher on a Xeon-class shared-bus multiprocessor, in
// serial and 16-thread mode. The interesting contrast is between
// streaming workloads (SHOT benefits more in parallel — many clean
// streams and enough bandwidth) and bandwidth-bound ones (MDS benefits
// less in parallel — demand misses saturate the bus, so prefetches are
// dropped).
package main

import (
	"fmt"
	"log"

	"cmpmem"
	"cmpmem/internal/prefetch"
)

func main() {
	params := cmpmem.Params{Seed: 11}
	for _, name := range []string{"SHOT", "MDS", "SNP"} {
		fmt.Printf("%s:\n", name)
		for _, threads := range []int{1, 16} {
			pc := cmpmem.PlatformConfig{Threads: threads, Seed: 11}

			// Prefetch off and on time the same execution.
			pf := prefetch.DefaultConfig(64)
			res, _, err := cmpmem.RunHier(name, params, pc, []cmpmem.HierConfig{
				cmpmem.Xeon16(threads, params.Scale, nil),
				cmpmem.Xeon16(threads, params.Scale, &pf),
			})
			if err != nil {
				log.Fatal(err)
			}

			off, on := res[0], res[1]
			gain := (off.Cycles/on.Cycles - 1) * 100
			fmt.Printf("  %2d thread(s): %+6.1f%%  (cycles %0.f -> %0.f; %d prefetches issued, %d dropped)\n",
				threads, gain, off.Cycles, on.Cycles,
				on.Prefetches.Issued, on.Prefetches.Dropped)
		}
	}
	fmt.Println("\nPer the paper: serial mode wins for high-miss-rate workloads (SNP, MDS)")
	fmt.Println("because their parallel demand traffic leaves no bus slots for prefetches.")
}
