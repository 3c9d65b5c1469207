// Package jsonwire holds the JSON primitives the hand-written KQML codec
// is built from. The encoders append exactly the bytes encoding/json
// produces (HTML escaping on, as json.Marshal has it), so a frame built
// from them is byte-identical to one built by reflection. The decoder is a
// cursor over the canonical, whitespace-free shape those encoders emit; it
// reports ok=false on anything else and never an error, and the caller then
// hands the whole input to encoding/json, which decides what is accepted.
package jsonwire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// plain[b] reports whether byte b stands for itself inside a JSON string
// as json.Marshal writes it: not a control byte, quote, backslash, or one
// of the HTML-sensitive <, > and &.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendString appends s as a JSON string literal, escaped the way
// json.Marshal escapes it: control bytes, quote and backslash, <, > and &
// as \u00XX, U+2028 and U+2029 as \u202X, invalid UTF-8 as the escape for U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case c == 0x2028 || c == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendStrings appends a slice of strings the way json.Marshal does: null
// for a nil slice, [] for an empty one.
func AppendStrings[S ~string](dst []byte, ss []S) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, string(s))
	}
	return append(dst, ']')
}

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// representation that round-trips, in 'f' form except below 1e-6 and from
// 1e21 up, where it is 'e' form with the exponent's leading zero dropped.
// NaN and the infinities have no JSON form and are an error.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	if abs < 1e15 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		// Integral and exactly representable: the digits are the
		// integer's. Negative zero is left to AppendFloat, which
		// writes "-0".
		return strconv.AppendInt(dst, int64(f), 10), nil
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// Dec is a cursor over one JSON text in the canonical shape. Lit and Byte
// consume input only when they match, so they also serve to probe for an
// optional part. The other methods may leave the cursor anywhere when they
// report false: the caller then abandons the Dec and decodes the text with
// encoding/json instead.
type Dec struct {
	b []byte
	i int
	// shared is string(b), made when SharedString first needs it.
	shared string
}

// NewDec returns a cursor at the start of b. Raw results alias b; nothing
// else the cursor returns does.
func NewDec(b []byte) Dec { return Dec{b: b} }

// Lit consumes the literal bytes s.
func (d *Dec) Lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// Byte consumes the single byte c.
func (d *Dec) Byte(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// Done reports whether the whole text has been consumed.
func (d *Dec) Done() bool { return d.i == len(d.b) }

// Rest returns the bytes not yet consumed; it aliases the input.
func (d *Dec) Rest() []byte { return d.b[d.i:] }

// scanString consumes one valid JSON string literal and returns the
// offsets of its contents. verbatim is true when the contents are the
// decoded string as they stand: no escapes and valid UTF-8.
func (d *Dec) scanString() (from, to int, verbatim, ok bool) {
	b, i := d.b, d.i
	if i >= len(b) || b[i] != '"' {
		return 0, 0, false, false
	}
	i++
	from, verbatim = i, true
	ascii := true
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			if !ascii && verbatim && !utf8.Valid(b[from:i]) {
				verbatim = false // encoding/json substitutes U+FFFD
			}
			d.i = i + 1
			return from, i, verbatim, true
		case c == '\\':
			verbatim = false
			i++
			if i >= len(b) {
				return 0, 0, false, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return 0, 0, false, false
				}
				i += 4
			default:
				return 0, 0, false, false
			}
		case c < 0x20:
			return 0, 0, false, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
		i++
	}
	return 0, 0, false, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes a string literal that has escapes or invalid UTF-8 the
// way encoding/json does, by asking it.
func unquote(lit []byte) (string, bool) {
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return "", false
	}
	return s, true
}

// String consumes a string literal and returns the decoded string in
// memory of its own.
func (d *Dec) String() (string, bool) { return d.decodeString(false) }

// SharedString is String for texts with many strings: the result is cut
// from one copy of the whole text, made on first use, so decoding n
// strings costs one allocation and any of them keeps that copy alive.
func (d *Dec) SharedString() (string, bool) { return d.decodeString(true) }

func (d *Dec) decodeString(shared bool) (string, bool) {
	from, to, verbatim, ok := d.scanString()
	switch {
	case !ok:
		return "", false
	case !verbatim:
		return unquote(d.b[from-1 : to+1])
	case !shared || from == to:
		return string(d.b[from:to]), true
	}
	if d.shared == "" {
		d.shared = string(d.b)
	}
	return d.shared[from:to], true
}

// scanNumber consumes one JSON number literal. integral reports that it
// has neither fraction nor exponent.
func (d *Dec) scanNumber() (lit []byte, integral, ok bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return nil, false, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		integral = false
		frac := i + 1
		if i = skipDigits(b, frac); i == frac {
			return nil, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		if i = skipDigits(b, exp); i == exp {
			return nil, false, false
		}
	}
	lit = b[d.i:i]
	d.i = i
	return lit, integral, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// atoi converts an integral literal of at most 18 digits, sign included.
func atoi(lit []byte) int64 {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	var n int64
	for _, c := range lit {
		n = n*10 + int64(c-'0')
	}
	if neg {
		return -n
	}
	return n
}

// Strings consumes what AppendStrings writes; each string has memory of
// its own.
func (d *Dec) Strings() ([]string, bool) { return d.strings(false) }

// SharedStrings is Strings with the strings cut from the shared copy of
// the text, as SharedString cuts them.
func (d *Dec) SharedStrings() ([]string, bool) { return d.strings(true) }

func (d *Dec) strings(shared bool) ([]string, bool) {
	if d.Lit("null") {
		return nil, true
	}
	if !d.Byte('[') {
		return nil, false
	}
	if d.Byte(']') {
		return []string{}, true
	}
	// A look ahead sizes the slice exactly: the strings' contents are
	// scanned twice, but the slice is allocated once and holds no spare
	// capacity for as long as the caller keeps it.
	n, probe := 1, *d
	for _, _, _, ok := probe.scanString(); ok && probe.Byte(','); _, _, _, ok = probe.scanString() {
		n++
	}
	ss := make([]string, 0, n)
	for {
		s, ok := d.decodeString(shared)
		if !ok {
			return nil, false
		}
		ss = append(ss, s)
		if d.Byte(']') {
			return ss, true
		}
		if !d.Byte(',') {
			return nil, false
		}
	}
}

// Bool consumes true or false.
func (d *Dec) Bool() (v, ok bool) {
	if d.Lit("true") {
		return true, true
	}
	return false, d.Lit("false")
}

// Number consumes a JSON number and returns it as encoding/json decodes
// one into a float64.
func (d *Dec) Number() (float64, bool) {
	lit, integral, ok := d.scanNumber()
	if !ok {
		return 0, false
	}
	if integral && len(lit) <= 15 {
		// The integer is exact in a float64, so it is what ParseFloat
		// returns. "-0" must stay negative zero, which float64(0) is not.
		if n := atoi(lit); n != 0 {
			return float64(n), true
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// integer consumes a JSON number that has neither fraction nor exponent.
func (d *Dec) integer() ([]byte, bool) {
	lit, integral, ok := d.scanNumber()
	return lit, ok && integral
}

// Int consumes a JSON number that is an integer literal in int64 range.
func (d *Dec) Int() (int64, bool) {
	lit, ok := d.integer()
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return n, ok && err == nil
}

// IntSize consumes a JSON number that is an integer literal in int range.
func (d *Dec) IntSize() (int, bool) {
	n, ok := d.Int()
	return int(n), ok && int64(int(n)) == n
}

// Uint consumes a JSON number that is an integer literal in uint64 range.
func (d *Dec) Uint() (uint64, bool) {
	lit, ok := d.integer()
	n, err := strconv.ParseUint(string(lit), 10, 64)
	return n, ok && err == nil
}

// maxSkipDepth bounds the nesting Raw follows; deeper texts are left to
// encoding/json, which has its own (much larger) limit.
const maxSkipDepth = 32

// Raw consumes one JSON value of any type and returns its bytes, which
// alias the input. It accepts only valid JSON, so the bytes can be kept as
// a json.RawMessage without another look.
func (d *Dec) Raw() ([]byte, bool) {
	start := d.i
	if !d.skip(0) {
		return nil, false
	}
	return d.b[start:d.i:d.i], true
}

func (d *Dec) skip(depth int) bool {
	if depth > maxSkipDepth || d.i >= len(d.b) {
		return false
	}
	switch c := d.b[d.i]; {
	case c == '"':
		_, _, _, ok := d.scanString()
		return ok
	case c == '{':
		d.i++
		if d.Byte('}') {
			return true
		}
		for {
			if _, _, _, ok := d.scanString(); !ok {
				return false
			}
			if !d.Byte(':') || !d.skip(depth+1) {
				return false
			}
			if d.Byte('}') {
				return true
			}
			if !d.Byte(',') {
				return false
			}
		}
	case c == '[':
		d.i++
		if d.Byte(']') {
			return true
		}
		for {
			if !d.skip(depth + 1) {
				return false
			}
			if d.Byte(']') {
				return true
			}
			if !d.Byte(',') {
				return false
			}
		}
	case c == 't':
		return d.Lit("true")
	case c == 'f':
		return d.Lit("false")
	case c == 'n':
		return d.Lit("null")
	default:
		_, _, ok := d.scanNumber()
		return ok
	}
}

// Ptr consumes null, for a nil pointer, or a value that decode reads into
// a new T.
func Ptr[T any](d *Dec, decode func(*T, *Dec) bool) (*T, bool) {
	if d.Lit("null") {
		return nil, true
	}
	v := new(T)
	return v, decode(v, d)
}
