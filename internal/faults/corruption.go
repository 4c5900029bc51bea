package faults

import (
	"fmt"

	"cmabhs/internal/rng"
)

// Corruption modes.
const (
	// CorruptInflate adds a fixed bias to every Byzantine
	// observation, clamped to 1 — the self-promoting seller that
	// reports better data than it senses. Inflation is the classic
	// attack on UCB-style mechanisms: the bandit overestimates the
	// attacker and keeps selecting it.
	CorruptInflate = "inflate"
	// CorruptRandom replaces every Byzantine observation with an
	// independent uniform draw on [0, 1] — a broken or adversarially
	// noisy sensor whose reports carry no signal.
	CorruptRandom = "random"
)

// CorruptionConfig parameterizes Byzantine sellers: a fixed subset of
// the population whose reported observations are corrupted before the
// mechanism sees them. The subset is either explicit (Sellers) or
// drawn once from the fault seed (Fraction of the population).
type CorruptionConfig struct {
	// Fraction of the population that is Byzantine (rounded to the
	// nearest seller count). Ignored when Sellers is set.
	Fraction float64 `json:"fraction,omitempty"`
	// Sellers lists explicit Byzantine seller ids.
	Sellers []int `json:"sellers,omitempty"`
	// Mode is CorruptInflate (default) or CorruptRandom.
	Mode string `json:"mode,omitempty"`
	// Inflation is the bias added in inflate mode (default 0.3).
	Inflation float64 `json:"inflation,omitempty"`
}

func (c CorruptionConfig) enabled() bool { return c.Fraction > 0 || len(c.Sellers) > 0 }

func (c CorruptionConfig) validate(sellers int) error {
	if c.Fraction < 0 || c.Fraction > 1 {
		return fmt.Errorf("faults: byzantine fraction %v outside [0, 1]", c.Fraction)
	}
	for _, i := range c.Sellers {
		if i < 0 || i >= sellers {
			return fmt.Errorf("faults: byzantine seller %d out of range [0, %d)", i, sellers)
		}
	}
	switch c.Mode {
	case "", CorruptInflate, CorruptRandom:
	default:
		return fmt.Errorf("faults: unknown corruption mode %q", c.Mode)
	}
	if c.Inflation < 0 {
		return fmt.Errorf("faults: inflation %v negative", c.Inflation)
	}
	return nil
}

// Corruption applies the Byzantine model. The subset is fixed at
// construction; only CorruptRandom consumes live randomness.
type Corruption struct {
	byz       []bool
	mode      string
	inflation float64
	src       *rng.Source // live stream, used by CorruptRandom only
}

// NewCorruption builds the model. pick seeds the subset selection
// (consumed at construction only); src is the live corruption stream.
func NewCorruption(cfg CorruptionConfig, sellers int, pick, src *rng.Source) *Corruption {
	c := &Corruption{
		byz:       make([]bool, sellers),
		mode:      cfg.Mode,
		inflation: cfg.Inflation,
		src:       src,
	}
	if c.mode == "" {
		c.mode = CorruptInflate
	}
	if c.inflation == 0 {
		c.inflation = 0.3
	}
	if len(cfg.Sellers) > 0 {
		for _, i := range cfg.Sellers {
			c.byz[i] = true
		}
		return c
	}
	n := int(cfg.Fraction*float64(sellers) + 0.5)
	if n > sellers {
		n = sellers
	}
	for _, i := range pick.Perm(sellers)[:n] {
		c.byz[i] = true
	}
	return c
}

// Byzantine reports whether seller i is corrupted.
func (c *Corruption) Byzantine(i int) bool { return c.byz[i] }

// hasStream reports whether the model consumes live randomness (and
// therefore has stream state to persist).
func (c *Corruption) hasStream() bool { return c.mode == CorruptRandom }

// Corrupt rewrites one observation if the seller is Byzantine.
func (c *Corruption) Corrupt(seller, poi, round int, obs float64) float64 {
	if !c.byz[seller] {
		return obs
	}
	switch c.mode {
	case CorruptRandom:
		return c.src.Float64()
	default: // CorruptInflate
		v := obs + c.inflation
		if v > 1 {
			return 1
		}
		return v
	}
}
