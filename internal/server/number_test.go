package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refNumber is the JSON number grammar check the scanner made before
// it collected values in the same pass, kept as the reference: after
// whitespace, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, where a '.'
// or an exponent marker commits the scan to that part and a leading
// zero may not be followed by a digit. It returns the literal's bounds
// in b and whether it is integral.
func refNumber(b []byte) (lo, hi int, integral, ok bool) {
	i := 0
	for i < len(b) && strings.IndexByte(" \t\n\r", b[i]) >= 0 {
		i++
	}
	lo = i
	digits := func() int {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if n := digits(); n == 0 || n > 1 && b[i-n] == '0' {
		return lo, 0, false, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return lo, 0, false, false
		}
		integral = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return lo, 0, false, false
		}
		integral = false
	}
	return lo, i, integral, true
}

// checkNumber holds float and int to the grammar check plus the
// strconv calls encoding/json makes: the same accept or decline, the
// same value to the bit, and the cursor at the end of the literal.
func checkNumber(t *testing.T, b []byte) {
	t.Helper()
	lo, hi, integral, ok := refNumber(b)
	var lit string
	if ok {
		lit = string(b[lo:hi])
	}

	want, err := strconv.ParseFloat(lit, 64)
	wantOK := ok && err == nil
	d := &taskDecoder{buf: b}
	got, gotOK := d.float()
	if gotOK != wantOK {
		t.Fatalf("float %q: ok %v, reference %v", b, gotOK, wantOK)
	}
	if gotOK && (!sameFloat(got, want) || d.i != hi) {
		t.Fatalf("float %q = %v (%#x) ending at %d, want %v (%#x) ending at %d",
			b, got, math.Float64bits(got), d.i, want, math.Float64bits(want), hi)
	}

	wantInt, err := strconv.ParseInt(lit, 10, strconv.IntSize)
	wantOK = ok && integral && err == nil
	d = &taskDecoder{buf: b}
	gotInt, gotOK := d.int()
	if gotOK != wantOK {
		t.Fatalf("int %q: ok %v, reference %v", b, gotOK, wantOK)
	}
	if gotOK && (int64(gotInt) != wantInt || d.i != hi) {
		t.Fatalf("int %q = %d ending at %d, want %d ending at %d", b, gotInt, d.i, wantInt, hi)
	}
}

// numberSeeds are the literals where an exact conversion goes wrong
// first: signed zero, the subnormal and overflow boundaries, values the
// table does not reach, mantissas at and past 19 digits, long tails,
// and exact halfway cases.
var numberSeeds = []string{
	"0", "-0", "-0.0", "0e0", "-0e-400", "0.000e99999999999999999999",
	"1", "-1", "0.1", "1.5", "123.456", "1e22", "1e-22", "9e15",
	"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"1e308", "1e309", "1e400", "-1e400", "1e-400", "1e-342", "1e-343", "1e-326",
	"9007199254740992", "9007199254740993", "9007199254740995", "18014398509481986",
	"1e23", "2e23", "8e23", "1.6e24", "1e+37", "1e38", "3e23", "123456789012345e22",
	"1234567890123456789", "12345678901234567890", "-9223372036854775808",
	"9223372036854775807", "9223372036854775808", "999999999999999999",
	"-99999999999999999", "100000000000000000000000",
	"0.10000000000000000555111512312578270211815834045410156250000000000",
	"1.00000000000000000000000000000000000000000000000000000000001",
	"0.0000000000000000000000000000000000000000000000000000001e55",
	"2.2250738585072013830902327173324040642192159804623318306e-308",
	"7.2057594037927933e16", "8.98846567431158e307", "4.4501477170144023e-308",
	"1" + strings.Repeat("0", 400), "0." + strings.Repeat("0", 400) + "1e400",
	"1e99999999999999999999", "1E5", "1e+5", "1e-5", " \t\n\r-12.5e-1,",
	"01", "-01", "00", "1.", "1.e5", ".5", "-", "+1", "1e", "1e+", "1.5e-",
	"1.5.", "1ee5", "--1", "0x10", "Infinity", "NaN", "", "   ", "1_000",
	"12345678901234567890123456789e-10", "1.1234567890123456789e1",
	// Just past a halfway point, by a digit beyond the 19th: dropping
	// it would round the tie to even instead of up.
	"9007199254740993.00000000000000000001", "90071992547409930000000000001e-13",
}

// FuzzDecodeNumber holds the fused number scan to the grammar check
// plus strconv on arbitrary bytes. The seeds run as a unit test under
// plain `go test`.
func FuzzDecodeNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkNumber)
}

// TestDecodeNumberSweep runs the same check over seeded floats printed
// with 'g', 'e' and 'f' at random precisions, past 19 significant
// digits too, and over random integers, so plain `go test` covers the
// conversion broadly.
func TestDecodeNumberSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	buf := make([]byte, 0, 512)
	for i := 0; i < n; i++ {
		var f float64
		fmtc := "gef"[rng.Intn(3)]
		switch rng.Intn(4) {
		case 0: // any finite bit pattern, subnormals included
			for f = math.Inf(1); math.IsInf(f, 0) || math.IsNaN(f); {
				f = math.Float64frombits(rng.Uint64())
			}
			if fmtc == 'f' && math.Abs(f) > 1e30 {
				fmtc = 'e' // keep 'f' strings short
			}
		case 1:
			f = rng.Float64() * math.Pow(10, float64(rng.Intn(50)-25))
		case 2:
			f = float64(rng.Int63() >> rng.Intn(63))
		default: // plan-mix cycles
			f = 1 + 119*rng.Float64()
		}
		if rng.Intn(2) == 0 {
			f = -f
		}
		buf = strconv.AppendFloat(buf[:0], f, fmtc, rng.Intn(27)-1, 64)
		checkNumber(t, buf)
		if i%8 == 0 {
			v := rng.Int63() >> rng.Intn(63)
			if rng.Intn(2) == 0 {
				v = -v - rng.Int63n(2) // reach math.MinInt64 too
			}
			buf = strconv.AppendInt(buf[:0], v, 10)
			checkNumber(t, buf)
		}
	}
}

// fastPath reports whether lit converts without the strconv fallback.
func fastPath(lit []byte) bool {
	d := &taskDecoder{buf: lit}
	_, n, _, ok := d.scanNumber()
	if !ok {
		return false
	}
	_, ok = n.float64()
	return ok
}

// TestDecodeNumberShortestFastPath requires the shortest form of every
// finite, normal float64, as FormatFloat(f, 'g', -1, 64) and
// json.Marshal print it, to convert without strconv, so a slide into
// the fallback fails here and not only in a benchmark. The fixed cases
// include exact halfway literals (1e+23, 2e+23) that Eisel–Lemire
// alone leaves undecided.
func TestDecodeNumberShortestFastPath(t *testing.T) {
	floats := []float64{1, 0.1, 1e23, 2e23, 4e23, 8e23, 1.6e24, 1e21, 1e22, 1e-7,
		443607288902553600000, 81648392712197800, 292680880366430.25,
		math.MaxFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 1), 0x1p53, 0x1p53 + 2, 0x1p63}
	rng := rand.New(rand.NewSource(1))
	for len(floats) < 200000 {
		f := math.Float64frombits(rng.Uint64())
		if e := math.Float64bits(f) >> 52 & 0x7FF; e != 0 && e != 0x7FF {
			floats = append(floats, f)
		}
		floats = append(floats, rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	var buf []byte
	for _, f := range floats {
		for _, neg := range []bool{false, true} {
			if neg {
				f = -f
			}
			buf = strconv.AppendFloat(buf[:0], f, 'g', -1, 64)
			if !fastPath(buf) {
				t.Fatalf("%s took the strconv fallback", buf)
			}
			js, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if !fastPath(js) {
				t.Fatalf("json %s took the strconv fallback", js)
			}
		}
	}
}

// TestDecodeNumberFallbackShare counts the number literals in a judge
// batch and a 1000-task plan body that reach the strconv fallback:
// none do.
func TestDecodeNumberFallbackShare(t *testing.T) {
	for _, bc := range []struct {
		name string
		body []byte
	}{{"judge64", judgeBody(t)}, {"plan1000", planBody(t, 1000)}} {
		dec := json.NewDecoder(bytes.NewReader(bc.body))
		dec.UseNumber()
		var lits, slow int
		for {
			tok, err := dec.Token()
			if err != nil {
				break
			}
			if num, ok := tok.(json.Number); ok {
				lits++
				if !fastPath([]byte(num)) {
					slow++
				}
			}
		}
		t.Logf("%s: %d of %d number literals reach strconv", bc.name, slow, lits)
		if lits == 0 || slow != 0 {
			t.Errorf("%s: %d of %d number literals reach strconv, want 0", bc.name, slow, lits)
		}
	}
}

// TestDyadic holds the integer conversion to strconv: it takes
// man·10^exp10 exactly when that is an integer below 2^64 over a power
// of two, and declines the rest.
func TestDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		man := rng.Uint64() >> rng.Intn(64)
		exp10 := rng.Intn(50) - 30
		k := -exp10
		if 0 < k && k < len(pow5u64) && rng.Intn(2) == 0 {
			man -= man % pow5u64[k] // a multiple of 5^k
		}
		var wantOK bool
		switch {
		case exp10 >= 0 && exp10 < len(pow10u64):
			hi, _ := bits.Mul64(man, pow10u64[exp10])
			wantOK = hi == 0
		case 0 < k && k < len(pow5u64):
			wantOK = man%pow5u64[k] == 0
		}
		f, ok := dyadic(man, exp10, false)
		if ok != wantOK {
			t.Fatalf("dyadic(%d, %d): ok %v, want %v", man, exp10, ok, wantOK)
		}
		lit := strconv.FormatUint(man, 10) + "e" + strconv.Itoa(exp10)
		if want, _ := strconv.ParseFloat(lit, 64); ok && !sameFloat(f, want) {
			t.Fatalf("dyadic(%s) = %v, want %v", lit, f, want)
		}
	}
}

// TestEightDigits checks the word-at-a-time digit parse against the
// byte loop on every window of seeded digit strings with stray bytes.
func TestEightDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := make([]byte, 16)
	for i := 0; i < 100000; i++ {
		for k := range b {
			b[k] = '0' + byte(rng.Intn(10))
			if rng.Intn(12) == 0 {
				b[k] = byte(rng.Intn(256))
			}
		}
		for at := 0; at <= len(b); at++ {
			got, ok := eightDigits(b, at)
			var want uint64
			wantOK := at+8 <= len(b)
			for k := at; wantOK && k < at+8; k++ {
				wantOK = '0' <= b[k] && b[k] <= '9'
				want = want*10 + uint64(b[k]-'0')
			}
			if ok != wantOK || ok && got != want {
				t.Fatalf("eightDigits(%q, %d) = %d, %v; want %d, %v", b, at, got, ok, want, wantOK)
			}
		}
	}
}

// TestPow10Table checks the derived table against each power computed
// on its own: 10^q cut to its top 128 bits, and ⌊2^(n+127) / 10^-q⌋ for
// 10^-q of n bits.
func TestPow10Table(t *testing.T) {
	var b [16]byte
	for q := minPow10; q <= maxPow10; q++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		m := new(big.Int)
		switch n := p.BitLen(); {
		case q < 0:
			m.Quo(new(big.Int).Lsh(big.NewInt(1), uint(n+127)), p)
		case n > 128:
			m.Rsh(p, uint(n-128))
		default:
			m.Lsh(p, uint(128-n))
		}
		m.FillBytes(b[:])
		want := pow128{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
		if got := pow10Table[q-minPow10]; got != want || got.hi>>63 != 1 {
			t.Fatalf("1e%d: table %#x, want %#x", q, got, want)
		}
	}
}
