// Package fixpoint implements the paper's "CONGEST transmittable" values
// (Section 2): probabilities and fractional values that are exact multiples
// of 2^-S for a scale S = O(log n). All arithmetic is exact integer
// arithmetic with explicit rounding direction, so algorithms built on it are
// bit-for-bit deterministic across platforms — a requirement for the
// derandomization engines, where every node must compute identical
// conditional expectations.
//
// The paper uses ι with 2^-ι ≤ n^-10; we expose S as a parameter (default
// 40 fractional bits) and keep all sums of up to 2^(63-S) terms exact in
// uint64 (see docs/ARCHITECTURE.md#substitutions, substitution 6).
package fixpoint

import (
	"fmt"
	"math/bits"
)

// Value is an unsigned fixed-point number: the real value is Value / 2^S for
// the scale S of the owning Ctx. Value carries no scale of its own; mixing
// scales is a programming error that Ctx methods cannot detect, so keep one
// Ctx per computation.
type Value uint64

// DefaultScale is the default number of fractional bits.
const DefaultScale = 40

// Ctx is an arithmetic context with a fixed scale.
type Ctx struct {
	s uint // fractional bits
}

// New returns a context with the given scale. Scales outside [4, 56] are
// rejected: below 4 the quantization error overwhelms the algorithms, above
// 56 sums of more than 128 terms could overflow.
func New(scale uint) (Ctx, error) {
	if scale < 4 || scale > 56 {
		return Ctx{}, fmt.Errorf("fixpoint: scale %d out of range [4,56]", scale)
	}
	return Ctx{s: scale}, nil
}

// MustNew is New for constant scales known to be valid.
func MustNew(scale uint) Ctx {
	c, err := New(scale)
	if err != nil {
		panic(err)
	}
	return c
}

// Default returns the context with DefaultScale.
func Default() Ctx { return Ctx{s: DefaultScale} }

// Scale returns the number of fractional bits.
func (c Ctx) Scale() uint { return c.s }

// One returns the representation of 1.
func (c Ctx) One() Value { return 1 << c.s }

// Half returns the representation of 1/2.
func (c Ctx) Half() Value { return 1 << (c.s - 1) }

// Eps returns the smallest positive value, 2^-S.
func (c Ctx) Eps() Value { return 1 }

// FromFloat converts f to a Value, rounding up (the safe direction for the
// pessimistic estimators and for the paper's "round to the next transmittable
// value" steps). Negative inputs map to 0.
func (c Ctx) FromFloat(f float64) Value {
	if f <= 0 {
		return 0
	}
	scaled := f * float64(uint64(1)<<c.s)
	v := Value(scaled)
	if float64(v) < scaled {
		v++
	}
	return v
}

// Float returns the float64 value of v (for reporting only; algorithms never
// branch on floats).
func (c Ctx) Float(v Value) float64 {
	return float64(v) / float64(uint64(1)<<c.s)
}

// FromRatio returns a/b rounded up if up is true, down otherwise. b must be
// positive.
func (c Ctx) FromRatio(a, b uint64, up bool) Value {
	if b == 0 {
		panic("fixpoint: division by zero")
	}
	hi, lo := mul64(a, uint64(1)<<c.s)
	q, r := div64(hi, lo, b)
	if up && r != 0 {
		q++
	}
	return Value(q)
}

// MulUp returns x·y rounded up to the next multiple of 2^-S.
func (c Ctx) MulUp(x, y Value) Value { return c.mul(x, y, true) }

// MulDown returns x·y rounded down.
func (c Ctx) MulDown(x, y Value) Value { return c.mul(x, y, false) }

func (c Ctx) mul(x, y Value, up bool) Value {
	hi, lo := mul64(uint64(x), uint64(y))
	// The result is (hi·2^64 + lo) >> s, which fits in 64 bits iff hi < 2^s.
	if hi>>c.s != 0 {
		panic("fixpoint: multiplication overflow")
	}
	res := hi<<(64-c.s) | lo>>c.s
	if up && lo&((1<<c.s)-1) != 0 {
		res++
	}
	return Value(res)
}

// DivUp returns x/y rounded up. y must be nonzero.
func (c Ctx) DivUp(x, y Value) Value { return c.div(x, y, true) }

// DivDown returns x/y rounded down. y must be nonzero.
func (c Ctx) DivDown(x, y Value) Value { return c.div(x, y, false) }

func (c Ctx) div(x, y Value, up bool) Value {
	if y == 0 {
		panic("fixpoint: division by zero")
	}
	hi := uint64(x) >> (64 - c.s)
	lo := uint64(x) << c.s
	if hi >= uint64(y) {
		panic("fixpoint: division overflow")
	}
	q, r := div64(hi, lo, uint64(y))
	if up && r != 0 {
		q++
	}
	return Value(q)
}

// Add returns x+y; it panics on uint64 overflow, which is unreachable when
// the context's headroom contract (sums of at most 2^(63-S) unit-bounded
// terms) is respected.
func (c Ctx) Add(x, y Value) Value {
	s := x + y
	if s < x {
		panic("fixpoint: addition overflow")
	}
	return s
}

// SubFloor returns max(x-y, 0).
func (c Ctx) SubFloor(x, y Value) Value {
	if y >= x {
		return 0
	}
	return x - y
}

// Min returns the smaller of x and y.
func Min(x, y Value) Value {
	if x < y {
		return x
	}
	return y
}

// Max returns the larger of x and y.
func Max(x, y Value) Value {
	if x > y {
		return x
	}
	return y
}

// Clamp1 returns min(x, 1).
func (c Ctx) Clamp1(x Value) Value { return Min(x, c.One()) }

// Complement returns 1-x for x ≤ 1.
func (c Ctx) Complement(x Value) Value {
	if x >= c.One() {
		return 0
	}
	return c.One() - x
}

// String formats v at the context's scale.
func (c Ctx) String(v Value) string {
	return fmt.Sprintf("%d/2^%d(≈%.6g)", uint64(v), c.s, c.Float(v))
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

// div64 divides the 128-bit value (hi,lo) by d, returning quotient and
// remainder. Requires hi < d (quotient fits in 64 bits).
func div64(hi, lo, d uint64) (q, r uint64) { return bits.Div64(hi, lo, d) }
