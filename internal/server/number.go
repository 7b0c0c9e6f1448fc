package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// This file converts the decimal the request scanner collects from a
// number literal (decode.go's scanNumber) into the float64 that
// strconv.ParseFloat returns for the same literal: the correctly
// rounded value. Exact methods are tried in order. Each returns that
// value or declines, and a literal all of them decline goes to strconv,
// so a decoded value never depends on which method produced it.
//
//   - Clinger's fast path (W. D. Clinger, "How to Read Floating Point
//     Numbers Accurately", PLDI 1990). A mantissa below 2^53 and a power
//     of ten up to 10^22 are both exact float64s, so one IEEE multiply
//     or divide rounds their product or quotient once, correctly.
//   - Eisel–Lemire (D. Lemire, "Number Parsing at a Gigabyte per
//     Second", Software: Practice and Experience 51(8), 2021). The
//     normalized mantissa is multiplied by a 128-bit truncation of the
//     power of ten, and the rounding is read off the product's top
//     bits. It declines when the truncation leaves the rounding
//     undecided, and when the result is not a normal float64. This is
//     the variant with a table rounded down (N. Tao, "The Eisel-Lemire
//     ParseNumberF64 Algorithm", 2020), which strconv runs too.
//   - An integer conversion for what Eisel–Lemire leaves undecided
//     because the value is exact: an integer below 2^64, or one over a
//     power of two. See dyadic.

// maxDigits is how many significant digits a decimal's mantissa holds:
// 10^19 - 1 < 2^64.
const maxDigits = 19

// decimal is a number literal as scanNumber collects it: the value is
// ±man·10^exp10 exactly, unless lossy.
type decimal struct {
	man   uint64 // the first maxDigits significant digits
	exp10 int
	neg   bool
	// lossy is set when the literal holds more than man and exp10 can:
	// a non-zero digit past the 19th, or an exponent past maxExp10.
	lossy bool
}

// maxExp10 caps the exponent scanNumber accumulates. Anything near it
// lies far outside the power table, so a capped literal is only marked
// lossy and left to strconv.
const maxExp10 = 1 << 20

// float64 returns d correctly rounded, or false when d needs strconv:
// it is lossy, or every exact method declines.
func (d decimal) float64() (float64, bool) {
	if d.lossy {
		return 0, false
	}
	// An integer printed in full, as json.Marshal prints any float below
	// 1e21, ends in zeros that only scale; dropping them lets Clinger
	// take a padded shortest form such as 443607288902553600000, an
	// exact halfway case Eisel–Lemire leaves undecided and too large
	// for dyadic.
	man, exp10 := d.man, d.exp10
	for man >= 1<<53 && man%10 == 0 {
		man /= 10
		exp10++
	}
	if man < 1<<53 {
		f, ok := float64(man), true
		switch e := exp10; {
		case 0 <= e && e <= 22:
			f *= exactPow10[e]
		case -22 <= e && e < 0:
			f /= exactPow10[-e]
		case 22 < e && e <= 22+15:
			// A few of the exponent's zeros can move into the mantissa
			// while it stays an exact integer below 1e15 < 2^53. Without
			// this, a halfway literal json.Marshal writes, such as 1e+23,
			// would leave Eisel–Lemire undecided and reach strconv.
			f *= exactPow10[e-22]
			if f > 1e15 {
				ok = false
				break
			}
			f *= 1e22
		default:
			ok = false
		}
		if ok {
			if d.neg {
				f = -f
			}
			return f, true
		}
	}
	if f, ok := eiselLemire(man, exp10, d.neg); ok {
		return f, true
	}
	return dyadic(man, exp10, d.neg)
}

// dyadic returns ±man·10^exp10 when it is an integer n < 2^64 times
// 2^-k: the conversion of n to float64 rounds once, ties to even, and
// the scaling by 2^-k is exact. These are the values, exactly
// representable or exactly halfway, whose product with a truncated
// power Eisel–Lemire cannot tell from its neighbours; shortest forms
// such as 292680880366430.25 are among them.
func dyadic(man uint64, exp10 int, neg bool) (float64, bool) {
	var n uint64
	switch {
	case 0 <= exp10 && exp10 < len(pow10u64):
		hi, lo := bits.Mul64(man, pow10u64[exp10])
		if hi != 0 {
			return 0, false
		}
		n = lo
	case -len(pow5Inv) < exp10 && exp10 < 0:
		// Only a multiple of 5^k is an integer over 2^k. For odd m, x is
		// a multiple of m exactly when x·m⁻¹ mod 2^64 ≤ ⌊(2^64-1)/m⌋, and
		// that product is then x/m (Granlund and Montgomery, PLDI 1994).
		k := -exp10
		n = man * pow5Inv[k]
		if n > math.MaxUint64/pow5u64[k] {
			return 0, false
		}
	default:
		return 0, false
	}
	f := float64(n)
	if exp10 < 0 {
		f = math.Ldexp(f, exp10)
	}
	if neg {
		f = -f
	}
	return f, true
}

// pow10u64 and pow5u64 hold the powers of 10 and 5 below 2^64, and
// pow5Inv[k] is 5^k's inverse modulo 2^64.
var pow10u64, pow5u64, pow5Inv = func() (p10 [20]uint64, p5, inv [28]uint64) {
	p10[0], p5[0], inv[0] = 1, 1, 1
	for k := 1; k < len(p10); k++ {
		p10[k] = p10[k-1] * 10
	}
	for k := 1; k < len(p5); k++ {
		p5[k] = p5[k-1] * 5
		inv[k] = inv[k-1] * 0xCCCCCCCCCCCCCCCD // 5·0xCC…CD ≡ 1 (mod 2^64)
	}
	return p10, p5, inv
}()

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire returns ±man·10^exp10 correctly rounded to a normal
// float64, or false when the 128-bit product cannot decide the
// rounding, exp10 lies outside the power table, or the result would be
// subnormal or overflow.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	p := &pow10Table[exp10-minPow10]
	// Normalize the mantissa to a set top bit. The product's top bit
	// then lies at binary exponent floor(exp10·log2 10) + 64 - lz, kept
	// here biased; 217706/2^16 approximates log2 10 closely enough that
	// the shift is that floor across the table.
	lz := bits.LeadingZeros64(man)
	man <<= lz
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)

	// The high word of the power alone decides the result unless the
	// bits below the 54 kept are all ones and the dropped low half of
	// the power could carry into them. Only then does the low word go
	// in, and if a carry is still possible the rounding is undecided.
	hi, lo := bits.Mul64(man, p.hi)
	if hi&0x1FF == 0x1FF && lo+man < man {
		hi2, lo2 := bits.Mul64(man, p.lo)
		wideHi, wideLo := hi, lo+hi2
		if wideLo < lo {
			wideHi++
		}
		if wideHi&0x1FF == 0x1FF && wideLo+1 == 0 && lo2+man < man {
			return 0, false
		}
		hi, lo = wideHi, wideLo
	}

	// Keep 54 bits: the 53 of the result and one to round with.
	top := hi >> 63
	m := hi >> (top + 9)
	exp2 -= 1 ^ top
	// An exact product whose dropped bits are all zero and whose kept
	// bits end in a lone 1 is a tie: the truncated table cannot tell
	// which way it breaks.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 { // rounding carried into a 54th bit
		m >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 (subnormal) wraps to the top, as does any
	// underflow above, so one comparison rejects both ends.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// minPow10 and maxPow10 bound the table's decimal exponents. Below
// minPow10, man·10^exp10 < 2^64·10^-343 is smaller than any float64
// but zero; above maxPow10 it overflows. Eisel–Lemire declines both
// long before, at the ends of the normal range.
const (
	minPow10 = -342
	maxPow10 = 308
)

// pow128 is a 128-bit mantissa, hi·2^64 + lo, with hi's top bit set.
type pow128 struct{ hi, lo uint64 }

// pow10Table[q-minPow10] is 10^q's mantissa truncated to 128 bits: 10^q
// lies in [M, M+1)·2^(floor(q·log2 10) - 127) for M its value.
var pow10Table = powersOfTen()

// powersOfTen derives the table with math/big at package start, in
// about 0.1 ms: 10^q exactly for q ≥ 0, and floor(2^K / 10^-q) for
// q < 0. Each of the latter is the one before divided by 10, since
// ⌊⌊x⌋/10⌋ = ⌊x/10⌋, and K is large enough that every quotient keeps
// more than 128 bits. Both are then cut to their top 128 bits, which
// rounds down.
func powersOfTen() (t [maxPow10 - minPow10 + 1]pow128) {
	var m big.Int
	var b [16]byte
	set := func(q int, x *big.Int) {
		if n := x.BitLen(); n > 128 {
			m.Rsh(x, uint(n-128))
		} else {
			m.Lsh(x, uint(128-n))
		}
		m.FillBytes(b[:])
		t[q-minPow10] = pow128{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	ten := big.NewInt(10)
	x := big.NewInt(1)
	for q := 0; q <= maxPow10; q++ {
		set(q, x)
		x.Mul(x, ten)
	}
	// log2 10 < 4, so 10^-minPow10 has fewer than 4·(-minPow10) bits.
	x.Lsh(big.NewInt(1), uint(-4*minPow10+128))
	for q := -1; q >= minPow10; q-- {
		x.Quo(x, ten)
		set(q, x)
	}
	return t
}
