package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// uEscapes turns each %u of s into a backslash and a u, so that the
// source can spell a JSON escape without holding one.
func uEscapes(s string) string { return strings.ReplaceAll(s, "%u", "\\"+"u") }

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	var all []byte
	for b := 0; b < 256; b++ {
		all = append(all, byte(b), 'x')
	}
	for _, s := range []string{
		"", "plain", `"quoted" \ back`, "<>&", "\xe2\x80\xa8 and \xe2\x80\xa9", "caf\xc3\xa9", "\xf0\x9f\x98\x80",
		"\xff", "\xc3", "a\xed\xa0\x80b", string(all),
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, encoding/json = %s", s, got, want)
		}
	}
	for _, ss := range [][]string{nil, {}, {"a"}, {"a", "<b>"}} {
		want, _ := json.Marshal(ss)
		if got := AppendStrings(nil, ss); !bytes.Equal(got, want) {
			t.Errorf("AppendStrings(%q) = %s, encoding/json = %s", ss, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 1.5, 1e-6, 9.99999e-7, 1e-7, 1.234e-9, 5e-324, 1e20, 9.999999999999999e20, 1e21, 1.5e21,
		math.MaxFloat64, 999999999999999, 1e15, 1e15 + 2, 1 << 53, 1<<53 + 2, math.MaxInt64, math.MinInt64, 0.1, 1.0 / 3,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, %v; encoding/json = %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) = %s, want an error", f, got)
		}
	}
}

// TestDecAgreesWithEncodingJSON: whatever the cursor accepts, encoding/json
// accepts with the same value. The reverse does not hold and need not: what
// the cursor declines is decoded by encoding/json.
func TestDecAgreesWithEncodingJSON(t *testing.T) {
	texts := []string{
		`"plain"`, `""`, `"caf` + "\xc3\xa9" + `"`, `"bad` + "\xff" + `"`, `"esc\n\t\"\\\/"`, uEscapes(`"%u0041%ud83d%ude00%ud800"`),
		`"\q"`, uEscapes(`"%u00g0"`), `"open`, "\"ctl\x01\"", `0`, `-0`, `1`, `-1`, `42`, `999999999999999`, `1000000000000000`,
		`9007199254740993`, `9223372036854775807`, `-9223372036854775808`, `9223372036854775808`, `18446744073709551615`, `18446744073709551616`, `123456789012345678901234567890`, `1.5`, `1.50`, `-0.0`, `1e5`, `1E+5`, `1e-7`, `1e999`, `01`, `1.`, `.5`, `-`,
		`+1`, `1e`, `0x10`, `true`, `false`, `null`, `tru`, `nul`, `[]`, `{}`, `[1,"a",{"k":[true,null]}]`, `{"a":{"b":{"c":[]}}}`,
		`[1,]`, `{"a":1,}`, `{"a"}`, `{a:1}`, `[1 ,2]`, ` 1`, `{"a":1}x`, strings.Repeat("[", 40) + strings.Repeat("]", 40),
	}
	for _, text := range texts {
		d := NewDec([]byte(text))
		if raw, ok := d.Raw(); ok && d.Done() {
			if !json.Valid([]byte(text)) || string(raw) != text {
				t.Errorf("Raw(%s) = %s, true; encoding/json says valid = %v", text, raw, json.Valid([]byte(text)))
			}
		}
		d = NewDec([]byte(text))
		if got, ok := d.String(); ok && d.Done() {
			var want string
			if err := json.Unmarshal([]byte(text), &want); err != nil || got != want {
				t.Errorf("String(%s) = %q; encoding/json = %q, %v", text, got, want, err)
			}
			d = NewDec([]byte(text))
			if shared, ok := d.SharedString(); !ok || shared != want {
				t.Errorf("SharedString(%s) = %q, %v; want %q", text, shared, ok, want)
			}
		}
		d = NewDec([]byte(text))
		if got, ok := d.Number(); ok && d.Done() {
			var want float64
			if err := json.Unmarshal([]byte(text), &want); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Number(%s) = %v; encoding/json = %v, %v", text, got, want, err)
			}
		}
		d = NewDec([]byte(text))
		if got, ok := d.Int(); ok && d.Done() {
			var want int64
			if err := json.Unmarshal([]byte(text), &want); err != nil || got != want {
				t.Errorf("Int(%s) = %d; encoding/json = %d, %v", text, got, want, err)
			}
		}
		d = NewDec([]byte(text))
		if got, ok := d.Uint(); ok && d.Done() {
			var want uint64
			if err := json.Unmarshal([]byte(text), &want); err != nil || got != want {
				t.Errorf("Uint(%s) = %d; encoding/json = %d, %v", text, got, want, err)
			}
		}
	}
}

// TestDecAcceptsTheCanonicalShape: the cursor is only useful if it takes
// what the encoders write.
func TestDecAcceptsTheCanonicalShape(t *testing.T) {
	text := `{"a":"x","b":[1,-2.5,1e-7],"c":{"d":null,"e":true,"f":false},"g":"` + uEscapes("%u003c") + `"}`
	d := NewDec([]byte(text))
	if raw, ok := d.Raw(); !ok || !d.Done() || string(raw) != text {
		t.Fatalf("Raw(%s) = %s, %v", text, raw, ok)
	}
	d = NewDec([]byte(`["a","","b"]x`))
	if ss, ok := d.SharedStrings(); !ok || len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "b" || !d.Byte('x') || !d.Done() {
		t.Fatalf("Strings = %q, %v", ss, ok)
	}
	text = `["a","b\n",""]`
	buf := []byte(text)
	d = NewDec(buf)
	ss, ok := d.Strings()
	copy(buf, strings.Repeat("x", len(buf)))
	if !ok || !d.Done() || len(ss) != 3 || cap(ss) != 3 || ss[0] != "a" || ss[1] != "b\n" || ss[2] != "" {
		t.Fatalf("Strings(%s) = %q (cap %d), %v, not its own exactly sized copy", text, ss, cap(ss), ok)
	}
	d = NewDec([]byte(`[true,false,tru]`))
	if !d.Byte('[') {
		t.Fatal("Byte")
	}
	if b, ok := d.Bool(); !ok || !b || !d.Byte(',') {
		t.Fatalf("Bool(true) = %v, %v", b, ok)
	}
	if b, ok := d.Bool(); !ok || b || !d.Byte(',') {
		t.Fatalf("Bool(false) = %v, %v", b, ok)
	}
	if _, ok := d.Bool(); ok {
		t.Fatal("Bool accepted tru")
	}
	dec := func(n *int, d *Dec) (ok bool) {
		*n, ok = d.IntSize()
		return ok
	}
	d = NewDec([]byte(`null,7`))
	if p, ok := Ptr(&d, dec); !ok || p != nil || !d.Byte(',') {
		t.Fatalf("Ptr(null) = %v, %v", p, ok)
	}
	if p, ok := Ptr(&d, dec); !ok || p == nil || *p != 7 || !d.Done() {
		t.Fatalf("Ptr(7) = %v, %v", p, ok)
	}
	d = NewDec([]byte(`{"k":12}`))
	if !d.Lit(`{"k":`) || d.Lit(`13`) || d.Byte('x') {
		t.Fatal("Lit or Byte consumed input it did not match")
	}
	if n, ok := d.Int(); !ok || n != 12 || !d.Byte('}') || !d.Done() {
		t.Fatalf("Int = %d, %v", n, ok)
	}
}
