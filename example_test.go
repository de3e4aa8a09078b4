package cmpmem_test

import (
	"fmt"
	"log"

	"cmpmem"
)

// ExampleLLCSweep is the README's quick start: FIMI runs to completion
// on the paper's 8-core CMP while a Dragonhead cache emulator measures
// the shared last-level cache. At 1/64 of the paper's footprints a
// 256 KB LLC stands for the paper's 16 MB.
func ExampleLLCSweep() {
	llc := cmpmem.CacheConfig{Name: "LLC-16MB", Size: 256 << 10, LineSize: 64, Assoc: 16}
	results, summary, err := cmpmem.LLCSweep(
		"FIMI",                                   // frequent-itemset mining (FP-growth)
		cmpmem.Params{Seed: 42, Scale: 1.0 / 64}, // deterministic dataset, 1/64 scale
		cmpmem.SCMP(),                            // the paper's 8-core platform
		[]cmpmem.CacheConfig{llc},
	)
	if err != nil {
		log.Fatal(err)
	}
	r := results[0] // one LLCResult per configuration
	fmt.Printf("%s on %d cores: %d instructions, %d loads, %d stores\n",
		summary.Workload, summary.Threads, summary.Instructions, summary.Loads, summary.Stores)
	fmt.Printf("%s: %d accesses, %d misses, %.2f misses per 1000 instructions\n",
		r.LLC.Name, r.Stats.Accesses, r.Stats.Misses, r.MPKI)
	fmt.Printf("CB samples: %d (one per 500us of emulated time)\n", len(r.Samples))
	// Output:
	// FIMI on 8 cores: 11633465 instructions, 4019118 loads, 3719843 stores
	// LLC-16MB: 7738961 accesses, 57075 misses, 4.91 misses per 1000 instructions
	// CB samples: 7 (one per 500us of emulated time)
}
