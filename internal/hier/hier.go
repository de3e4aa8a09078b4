// Package hier models a per-core cache hierarchy (DL1 + DL2, optionally
// a shared L3) in front of main memory, with an in-order timing model.
// It plays two roles from the paper:
//
//   - the VTune-instrumented Pentium 4 (8 KB L1, 512 KB L2) that produced
//     Table 2's single-threaded workload characteristics (IPC, instruction
//     mix, per-level misses per 1000 instructions); and
//   - the 16-way Xeon SMP used for the Figure 8 hardware-prefetching
//     study, where per-core stride prefetchers compete with demand misses
//     for front-side-bus bandwidth.
//
// Like the paper's emulator it is a chain of filters: the AF passes the
// measurement window, a DL1 stage (stage.go) touches each in-window line
// in its core's DL1, and every back end (a Machine: DL2s, L3, prefetchers,
// bus window and stall account) sees only the DL1's misses. Nothing below
// the DL1 writes into it, so machines that agree on (Cores, DL1) share
// one stage and get exactly what each would get alone.
//
// The front-side bus is a bandwidth model in bus cycles: a DL2-line
// transfer occupies a 64-bit data path for one cycle per 8 bytes plus
// four cycles of arbitration, and prefetches compete with demand misses
// for each window's slots, so bandwidth-saturated workloads see little
// prefetch benefit — the Figure 8 effect.
//
// The timing model is deliberately simple and documented: a base CPI for
// issue/execute, plus a per-miss stall, with streaming (unit-stride)
// misses charged a reduced stall to reflect the memory-level parallelism
// of pipelined stream accesses. Absolute IPC therefore depends on this
// latency table, but relative orderings across workloads follow from the
// measured miss behaviour.
package hier

import (
	"fmt"

	"cmpmem/internal/cache"
	"cmpmem/internal/mem"
	"cmpmem/internal/prefetch"
	"cmpmem/internal/workloads"
)

// Latencies is the timing table, in core cycles.
type Latencies struct {
	// BaseCPI is the no-miss cycles per instruction (issue width).
	BaseCPI float64
	// L2Hit is the extra stall for an L1 miss that hits in L2.
	L2Hit float64
	// Mem is the extra stall for an L2 miss serviced by memory.
	Mem float64
	// StreamOverlap divides the stall of a unit-stride (streaming) miss,
	// modelling the MLP of pipelined sequential accesses.
	StreamOverlap float64
	// L3Hit is the extra stall for a DL2 miss that hits the shared L3
	// (only meaningful when Config.L3 is set). An SRAM LLC sits near
	// 40 cycles; a DRAM cache near 120 — still far below Mem.
	L3Hit float64
	// PfHit is the stall charged for the first demand hit on a
	// prefetched line: prefetches are not perfectly timely, so they
	// hide most — not all — of a miss (the reason the paper's measured
	// gains top out near 33% rather than at the full miss latency).
	PfHit float64
	// QueueFactor scales added memory latency under bus contention:
	// extra = Mem * QueueFactor * max(0, utilization-queueFloor).
	QueueFactor float64
}

// queueFloor is the bus utilization at which queueing delay begins.
const queueFloor = 0.4

// DefaultLatencies approximates the paper's 3 GHz-era machines.
func DefaultLatencies() Latencies {
	return Latencies{BaseCPI: 0.8, L2Hit: 18, L3Hit: 120, Mem: 400,
		StreamOverlap: 4, PfHit: 70, QueueFactor: 2}
}

// pfDropUtil is the bus utilization above which prefetches are dropped.
const pfDropUtil = 0.75

// Config describes the modelled machine.
type Config struct {
	// Cores is the number of cores, each with private DL1 and DL2.
	Cores int
	// DL1 and DL2 are per-core cache configurations.
	DL1 cache.Config
	DL2 cache.Config
	// Lat is the timing table.
	Lat Latencies
	// L3, if non-nil, adds a shared last-level cache between the
	// per-core DL2s and memory. Combined with Lat.L3Hit it models the
	// paper's proposed DRAM-based large LLCs (eDRAM / off-die DRAM /
	// 3D-stacked): huge capacity, hit latency between SRAM and DRAM.
	L3 *cache.Config
	// Prefetch, if non-nil, enables a per-core stride prefetcher that
	// trains on DL2 accesses and fills DL2, subject to bus bandwidth.
	Prefetch *prefetch.Config
	// BusWindowCycles is the sliding-window size for bus utilization
	// accounting; BusCapacity is the transfer cycles available per
	// window (shared across cores).
	BusWindowCycles uint64
	BusCapacity     uint64
}

// PentiumIV returns the Table 2 profiling machine: 8 KB / 4-way DL1 and
// 512 KB / 8-way DL2, 64 B lines, one core. The DL2 scales with the
// workload scale so the cache-to-working-set proportions of the paper's
// measurements are preserved (the DL1 stays full size: the hot inner
// structures of the kernels do not shrink with the footprint scale).
func PentiumIV(scale float64) Config {
	return Config{
		Cores: 1,
		DL1:   cache.Config{Name: "DL1", Size: 8 << 10, LineSize: 64, Assoc: 4},
		DL2: cache.Config{Name: "DL2", Size: workloads.ScaleCache(512<<10, scale, 8<<10),
			LineSize: 64, Assoc: 8},
		Lat: DefaultLatencies(),
	}
}

// Xeon16 returns the Figure 8 machine: cores × (16 KB DL1 + 1 MB DL2,
// scaled) sharing one front-side bus.
func Xeon16(cores int, scale float64, pf *prefetch.Config) Config {
	return Config{
		Cores: cores,
		DL1:   cache.Config{Name: "DL1", Size: 16 << 10, LineSize: 64, Assoc: 4},
		DL2: cache.Config{Name: "DL2", Size: workloads.ScaleCache(1<<20, scale, 16<<10),
			LineSize: 64, Assoc: 8},
		Lat:             DefaultLatencies(),
		Prefetch:        pf,
		BusWindowCycles: 10_000,
		BusCapacity:     60_000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > cache.MaxCores {
		return fmt.Errorf("hier: cores must be in [1,%d], got %d", cache.MaxCores, c.Cores)
	}
	if err := c.DL1.Validate(); err != nil {
		return err
	}
	if err := c.DL2.Validate(); err != nil {
		return err
	}
	if c.L3 != nil {
		if err := c.L3.Validate(); err != nil {
			return err
		}
	}
	if c.Prefetch != nil {
		if err := c.Prefetch.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// missStreams is the number of concurrent miss streams whose MLP the
// timing model tracks per core (hardware MSHR/stream buffers).
const missStreams = 4

// coreState is the private hierarchy of one core below its DL1.
type coreState struct {
	l2      *cache.Cache
	pf      *prefetch.Prefetcher
	streams [missStreams]uint64 // recent miss line numbers
	nextStr int
	pfBuf   []mem.Addr
}

// Machine is one modelled multiprocessor: the back end behind a DL1
// stage, which feeds it one clock tick per in-window reference and one
// serviceL2 call per DL1-miss line.
type Machine struct {
	cfg   Config
	st    *stage // the AF and the DL1s this machine reads its misses from
	cores []*coreState
	l3    *cache.Cache // shared LLC, nil unless Config.L3 is set
	// lineXfer is the bus cycles one DL2-line transfer occupies, demand
	// or prefetch alike.
	lineXfer uint64

	stall float64 // accumulated stall cycles

	// Bus windowing: wall-clock time advances with every memory
	// instruction (cores run concurrently, so each reference represents
	// CPI/cores machine cycles); transfers consume window capacity.
	timePerRef   float64
	timeNow      float64
	windowStart  float64
	windowDemand uint64 // demand transfer cycles this window
	windowPf     uint64 // prefetch transfer cycles this window

	pfDropped   uint64
	pfIssued    uint64
	l2LineShift uint
}

// newMachine builds the back end of one validated config.
func newMachine(cfg Config, st *stage) (*Machine, error) {
	if cfg.BusWindowCycles == 0 {
		cfg.BusWindowCycles = 10_000
	}
	if cfg.BusCapacity == 0 {
		cfg.BusCapacity = 6 * cfg.BusWindowCycles
	}
	m := &Machine{cfg: cfg, st: st, lineXfer: 4 + (cfg.DL2.LineSize+7)/8}
	if cfg.L3 != nil {
		l3, err := cache.New(*cfg.L3)
		if err != nil {
			return nil, err
		}
		m.l3 = l3
	}
	m.timePerRef = 2.0 / float64(cfg.Cores)
	for s := cfg.DL2.LineSize; s > 1; s >>= 1 {
		m.l2LineShift++
	}
	for i := 0; i < cfg.Cores; i++ {
		cs := &coreState{}
		var err error
		if cs.l2, err = cache.New(cfg.DL2); err != nil {
			return nil, err
		}
		if cfg.Prefetch != nil {
			if cs.pf, err = prefetch.New(*cfg.Prefetch); err != nil {
				return nil, err
			}
		}
		m.cores = append(m.cores, cs)
	}
	return m, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// tick advances wall time by one in-window reference and rolls the bus
// window.
func (m *Machine) tick() {
	m.timeNow += m.timePerRef
	if m.timeNow-m.windowStart >= float64(m.cfg.BusWindowCycles) {
		m.windowStart = m.timeNow
		m.windowDemand = 0
		m.windowPf = 0
	}
}

// serviceL2 handles one L1-miss line at L2 and, on L2 miss, at memory,
// charging stall cycles and training the prefetcher.
func (m *Machine) serviceL2(lineAddr mem.Addr, kind mem.Kind, core uint8) {
	cs := m.cores[core]
	if cs.pf != nil {
		cs.pfBuf = cs.pf.Train(lineAddr, cs.pfBuf[:0])
	}
	miss, pfHit := cs.l2.TouchPF(lineAddr, kind, core)
	if miss && m.l3 != nil && !m.l3.Touch(lineAddr, kind, core) {
		// DL2 miss serviced by the shared L3 (SRAM or DRAM LLC): no
		// memory access, no front-side-bus transfer.
		m.stall += m.cfg.Lat.L3Hit
		return
	}
	if miss {
		blk := uint64(lineAddr) >> m.l2LineShift
		stall := m.cfg.Lat.Mem
		// A miss adjacent to any tracked stream overlaps with the
		// pipelined fetches of that stream (MLP).
		overlapped := false
		for i, s := range cs.streams {
			if s != 0 && (blk == s+1 || blk+1 == s) {
				stall /= m.cfg.Lat.StreamOverlap
				cs.streams[i] = blk
				overlapped = true
				break
			}
		}
		if !overlapped {
			cs.streams[cs.nextStr] = blk
			cs.nextStr = (cs.nextStr + 1) % missStreams
		}
		// Bus contention: queueing delay grows with utilization.
		if util := m.busUtil(); util > queueFloor {
			stall += float64(m.cfg.Lat.Mem * m.cfg.Lat.QueueFactor * (util - queueFloor))
		}
		m.stall += stall
		m.windowDemand += m.lineXfer
	} else if pfHit {
		m.stall += m.cfg.Lat.PfHit
	} else {
		m.stall += m.cfg.Lat.L2Hit
	}
	// Issue prefetches predicted by this access, bandwidth permitting.
	// Prefetching converts misses into earlier transfers of the same
	// lines — it does not reduce bus occupancy — so the drop decision
	// uses total occupancy: on a saturated bus there is simply no slot
	// for a prefetch (the Figure 8 SNP/MDS effect).
	if cs.pf != nil {
		for _, p := range cs.pfBuf {
			if m.busUtil() >= pfDropUtil {
				m.pfDropped++
				continue
			}
			if cs.l2.Fill(p, core) {
				m.pfIssued++
				m.windowPf += m.lineXfer
			}
		}
		cs.pfBuf = cs.pfBuf[:0]
	}
}

// busUtil returns total (demand + prefetch) utilization of the current
// bus window.
func (m *Machine) busUtil() float64 {
	return float64(m.windowDemand+m.windowPf) / float64(m.cfg.BusCapacity)
}

// Instructions returns total retired instructions seen so far.
func (m *Machine) Instructions() uint64 { return m.st.af.Instructions() }

// Cycles returns the modelled execution time in core cycles. A
// float64(…) around a product in this package rounds it, so no GOARCH
// fuses it into an add and every machine prints the same bytes.
func (m *Machine) Cycles() float64 {
	return float64(float64(m.Instructions())*m.cfg.Lat.BaseCPI) + m.stall
}

// IPC returns instructions per cycle.
func (m *Machine) IPC() float64 {
	c := m.Cycles()
	if c == 0 {
		return 0
	}
	return float64(m.Instructions()) / c
}

// L1Stats aggregates DL1 counters across cores, read from the stage.
func (m *Machine) L1Stats() cache.Stats {
	var out cache.Stats
	for _, l1 := range m.st.l1 {
		out.Add(l1.Stats())
	}
	return out
}

// L2Stats aggregates DL2 counters across cores.
func (m *Machine) L2Stats() cache.Stats {
	var out cache.Stats
	for _, cs := range m.cores {
		out.Add(cs.l2.Stats())
	}
	return out
}

// L3Stats returns the shared LLC's counters (zero value when no L3 is
// configured).
func (m *Machine) L3Stats() cache.Stats {
	if m.l3 == nil {
		return cache.Stats{}
	}
	return *m.l3.Stats()
}

// PrefetchReport summarizes prefetcher effectiveness.
type PrefetchReport struct {
	Issued  uint64
	Dropped uint64
}

// Prefetches returns issue/drop counts (zero when prefetch is disabled).
func (m *Machine) Prefetches() PrefetchReport {
	return PrefetchReport{Issued: m.pfIssued, Dropped: m.pfDropped}
}
