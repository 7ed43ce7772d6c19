package core

import (
	"fmt"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

// This file implements the slot-sharing extension proposed as future
// work in §7.2: "One way to utilize this valuable resource is to assign
// a time slot to more than one processor. Although processors sharing
// the same time slot can conflict with each other when accessing shared
// memory concurrently, the memory and network utilizations are further
// improved" — trading the strict conflict-freedom guarantee for higher
// processor counts on the same memory hardware.

// SharedConfig parameterizes a slot-shared CFM: Divisions AT-space
// divisions (the hardware is a CFM for Divisions processors) with
// Sharing processors assigned to each division.
type SharedConfig struct {
	Divisions  int     // AT-space divisions (= conflict-free capacity)
	Sharing    int     // processors per division (1 = plain CFM)
	BlockWords int     // words per block (banks of the underlying CFM)
	BankCycle  int     // c
	AccessRate float64 // r per processor per cycle
	RetryMean  int
	Seed       uint64
}

// Validate reports a descriptive error for an unusable configuration.
func (c SharedConfig) Validate() error {
	switch {
	case c.Divisions < 1:
		return fmt.Errorf("core: need >=1 division, got %d", c.Divisions)
	case c.Sharing < 1:
		return fmt.Errorf("core: sharing %d < 1", c.Sharing)
	case c.BlockWords < 1 || c.BankCycle < 1:
		return fmt.Errorf("core: block %d / cycle %d invalid", c.BlockWords, c.BankCycle)
	// Range checks are negated so NaN, which fails every comparison,
	// is rejected too.
	case !(c.AccessRate >= 0 && c.AccessRate <= 1):
		return fmt.Errorf("core: rate %v out of [0,1]", c.AccessRate)
	case c.RetryMean < 1:
		return fmt.Errorf("core: retry mean %d < 1", c.RetryMean)
	}
	return nil
}

// Processors returns the total processor count, Divisions × Sharing.
func (c SharedConfig) Processors() int { return c.Divisions * c.Sharing }

// BlockTime returns β.
func (c SharedConfig) BlockTime() int { return c.BlockWords + c.BankCycle - 1 }

// Division returns the AT-space division processor p is assigned to.
func (c SharedConfig) Division(p int) int { return p % c.Divisions }

// NewShared builds the slot-shared CFM as the §3.4.1 conventional
// model with each processor's module fixed to its division: Divisions
// modules held for β slots per block access, Divisions×Sharing
// processors, and processors sharing a division conflicting with each
// other (and only with each other). The fixed target draws nothing from
// the RNG. It panics on an invalid configuration.
func NewShared(cfg SharedConfig) *memory.Conventional {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return memory.NewConventional(memory.ConventionalConfig{
		Processors: cfg.Processors(),
		Modules:    cfg.Divisions,
		BlockTime:  cfg.BlockTime(),
		AccessRate: cfg.AccessRate,
		RetryMean:  cfg.RetryMean,
		Seed:       cfg.Seed,
		Target:     func(p int, _ *sim.RNG) int { return cfg.Division(p) },
	})
}
