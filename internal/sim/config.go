// Package sim assembles the simulated machine: a single-issue in-order CPU
// with a unified TLB, the L1 and L2 data caches, the system bus, the
// Impulse memory controller, and banked DRAM.
//
// The model is execution-driven at load/store granularity. Workloads are
// Go functions that issue typed loads and stores with virtual addresses;
// data really moves (values live in simulated DRAM and remapped accesses
// are resolved through the controller), so every experiment checks the
// remapping machinery functionally while the timing model produces the
// paper's metrics. The CPU blocks on loads (it is single-issue, as in the
// paper's 120 MHz PA-RISC model); prefetches and writebacks proceed in the
// background by reserving future time on the shared resources (bus, L2
// port, DRAM banks), which is how contention effects appear.
package sim

import (
	"fmt"

	"impulse/internal/addr"
	"impulse/internal/bus"
	"impulse/internal/cache"
	"impulse/internal/dram"
	"impulse/internal/kernel"
	"impulse/internal/mc"
)

// Config assembles the machine configuration. Zero value is not usable;
// start from DefaultConfig.
type Config struct {
	L1     cache.Config
	L2     cache.Config
	Bus    bus.Config
	DRAM   dram.Config
	MC     mc.Config
	Kernel kernel.Config

	// TLBEntries is the unified, fully-associative processor TLB size.
	TLBEntries int
	// TLBMissPenalty is the CPU stall for a software TLB walk, cycles.
	// (Paint handles PA-RISC TLB misses in software; we charge a fixed
	// cost instead of simulating the handler's own memory accesses.)
	TLBMissPenalty uint64

	// L1Prefetch enables hardware next-line prefetching into the L1 cache
	// (the HP PA 7200 mechanism the paper compares against).
	L1Prefetch bool

	// L2MissProbeCycles is the tag-probe occupancy of the L2 on a miss.
	L2MissProbeCycles uint64

	// StoreBacklogCycles bounds how far the memory system may run behind
	// posted stores before the CPU stalls — the finite store-queue /
	// MSHR effect. Without it a store-heavy phase would accumulate
	// unbounded bus backlog that later loads pay for.
	StoreBacklogCycles uint64

	// IssueWidth scales non-memory instruction cost: a width-w machine
	// retires w non-memory instructions per cycle (loads still serialize
	// through the memory system). The paper's model is single-issue
	// (width 1); its conclusion predicts that "speedups should be greater
	// on superscalar machines ... because non-memory instructions will be
	// effectively cheaper", which the superscalar ablation tests with
	// width > 1.
	IssueWidth uint64

	// DisableFastPath turns off the line-hit fast path in the access
	// engine (see fastpath.go), forcing every load and store through the
	// reference translate+probe sequence. The fast path is cycle- and
	// counter-identical to the reference path by construction; this knob
	// exists so the differential tests can prove it, and as an escape
	// hatch. It never changes simulation results, so the harness's cell
	// memo ignores it in a cell's identity.
	DisableFastPath bool
}

// DefaultConfig reproduces the paper's simulated machine (§4): 32K
// direct-mapped VIPT write-around L1 with 32-byte lines, 256K 2-way PIPT
// write-allocate L2 with 128-byte lines, 1/7/~40-cycle L1/L2/memory
// latencies, unified single-cycle fully-associative TLB, Runway-style bus.
func DefaultConfig() Config {
	layout := addr.DefaultLayout()
	mcCfg := mc.DefaultConfig()
	mcCfg.Layout = layout
	kCfg := kernel.DefaultConfig()
	kCfg.Layout = layout
	return Config{
		L1:                 cache.L1Default(),
		L2:                 cache.L2Default(),
		Bus:                bus.DefaultConfig(),
		DRAM:               dram.DefaultConfig(),
		MC:                 mcCfg,
		Kernel:             kCfg,
		TLBEntries:         128,
		TLBMissPenalty:     30,
		L1Prefetch:         false,
		L2MissProbeCycles:  2,
		StoreBacklogCycles: 160, // ~8 outstanding line fills
		IssueWidth:         1,
	}
}

// Validate checks cross-component consistency.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.Bus.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.MC.Validate(); err != nil {
		return err
	}
	if c.L1.LineBytes > c.L2.LineBytes {
		return fmt.Errorf("sim: L1 line (%d) larger than L2 line (%d)", c.L1.LineBytes, c.L2.LineBytes)
	}
	if c.MC.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("sim: controller line (%d) != L2 line (%d)", c.MC.LineBytes, c.L2.LineBytes)
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("sim: TLBEntries must be positive")
	}
	if c.IssueWidth == 0 {
		return fmt.Errorf("sim: IssueWidth must be positive")
	}
	if c.MC.Layout != c.Kernel.Layout {
		return fmt.Errorf("sim: controller and kernel disagree on the address-space layout")
	}
	return nil
}
