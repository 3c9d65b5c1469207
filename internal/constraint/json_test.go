package constraint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"infosleuth/internal/jsonwire"
)

// The oracle: Value's JSON methods as they were before the hand-written
// codec, one nested encoding/json call per value. The differential test
// and the fuzz target hold the hand-written path to these bytes and to
// this accept/reject behaviour.

func refMarshalValue(v Value) ([]byte, error) {
	if v.kind == KindNumber {
		n := v.num
		return json.Marshal(valueJSON{N: &n})
	}
	s := v.str
	return json.Marshal(valueJSON{S: &s})
}

func refUnmarshalValue(v *Value, data []byte) error {
	var raw valueJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch {
	case raw.N != nil && raw.S != nil:
		return fmt.Errorf("constraint: value cannot be both number and string")
	case raw.N != nil:
		*v = Num(*raw.N)
	case raw.S != nil:
		*v = Str(*raw.S)
	default:
		*v = Str("")
	}
	return nil
}

// identical is Equal that tells negative zero from zero and takes NaN as
// equal to itself.
func identical(a, b Value) bool {
	return a.kind == b.kind && math.Float64bits(a.num) == math.Float64bits(b.num) && a.str == b.str
}

// edgeValues are values whose encodings sit on a boundary of the format:
// the 'f'/'e' switch at 1e-6 and 1e21, negative zero, integers around the
// 2^53 and 1e15 limits of the integer fast paths, and strings holding every
// class of byte the string encoder treats specially.
var edgeValues = []Value{
	Num(0), Num(math.Copysign(0, -1)), Num(1), Num(-1), Num(42), Num(1.5), Num(-0.25),
	Num(1e-6), Num(9.99999e-7), Num(1e-7), Num(1.234e-9), Num(1e-10), Num(5e-324),
	Num(1e20), Num(9.999999999999999e20), Num(1e21), Num(1.5e21), Num(1e22), Num(math.MaxFloat64),
	Num(999999999999999), Num(1e15), Num(1e15 + 2), Num(1 << 53), Num(1<<53 + 2), Num(-(1 << 53)),
	Num(math.MaxInt64), Num(math.MinInt64), Num(123456789.125), Num(0.1), Num(1.0 / 3),
	Str(""), Str("40W"), Str(`say "hi"`), Str(`back\slash`), Str("<a href='x'>&amp;</a>"),
	Str("tab\there"), Str("nl\nthere"), Str("\b\f\r"), Str("\x00\x01\x1f\x7f"),
	Str("line\xe2\x80\xa8sep\xe2\x80\xa9"), Str("caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80"),
	Str("bad\xffutf8"), Str("\xc3"), Str("\xed\xa0\x80"), Str("{\"n\":1}"), Str("a{\"b"),
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Num(float64(r.Intn(2000) - 1000))
	case 1:
		return Num(r.NormFloat64() * math.Pow(10, float64(r.Intn(50)-25)))
	case 2:
		return Num(math.Float64frombits(r.Uint64()))
	case 3:
		return edgeValues[r.Intn(len(edgeValues))]
	default:
		b := make([]byte, r.Intn(12))
		for i := range b {
			if r.Intn(4) == 0 {
				b[i] = byte(r.Intn(256))
			} else {
				b[i] = byte(' ' + r.Intn(95))
			}
		}
		return Str(string(b))
	}
}

func TestValueJSONMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1999))
	values := append([]Value(nil), edgeValues...)
	for i := 0; i < 5000; i++ {
		values = append(values, randValue(r))
	}
	for _, v := range values {
		want, wantErr := refMarshalValue(v)
		got, gotErr := v.MarshalJSON()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%v: MarshalJSON error = %v, reference error = %v", v, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: MarshalJSON = %s, reference = %s", v, got, want)
		}
		if nested, err := json.Marshal([]Value{v}); err != nil || !bytes.Equal(nested, append(append([]byte{'['}, want...), ']')) {
			t.Fatalf("%v: nested in encoding/json = %s, %v", v, nested, err)
		}
		var back, refBack Value
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("%v: UnmarshalJSON(%s): %v", v, got, err)
		}
		if err := refUnmarshalValue(&refBack, got); err != nil || !identical(back, refBack) {
			t.Fatalf("%v: UnmarshalJSON(%s) = %#v, reference = %#v, %v", v, got, back, refBack, err)
		}
	}
}

func TestValueJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if out, err := Num(f).MarshalJSON(); err == nil {
			t.Errorf("MarshalJSON(%v) = %s, want an error", f, out)
		}
		if _, err := refMarshalValue(Num(f)); err == nil {
			t.Errorf("reference accepts %v", f)
		}
	}
}

// TestSetJSONAddsAtoms: a set decodes to the set its atoms build when
// added one by one, whatever their order on the wire and when two of them
// constrain one field, as Set.UnmarshalJSON always decoded it; and the
// hand-written decoder takes such a list rather than leaving it to
// encoding/json.
func TestSetJSONAddsAtoms(t *testing.T) {
	atoms := []Atom{
		{Field: "b", Interval: AtMost(5)},
		{Field: "a", Allowed: []Value{Str("x"), Num(2)}},
		{Field: "a", Allowed: []Value{Num(2)}},
		{Field: "c", Interval: NewRange(1, 9)},
		{Field: "c", Interval: GreaterThan(3)},
	}
	data, err := json.Marshal(atoms) // Atom has no JSON methods of its own
	if err != nil {
		t.Fatal(err)
	}
	want := NewSet(atoms...)
	d := jsonwire.NewDec(data)
	var fast Set
	if !fast.DecodeJSON(&d) || !d.Done() {
		t.Fatalf("DecodeJSON declined %s", data)
	}
	var got Set
	if err := got.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&fast, want) || !reflect.DeepEqual(&got, want) {
		t.Fatalf("decoding %s:\n got %v and %v\nwant %v", data, &fast, &got, want)
	}
	enc, err := got.MarshalJSON()
	ref, refErr := json.Marshal(want.Atoms())
	if err != nil || refErr != nil || !bytes.Equal(enc, ref) {
		t.Fatalf("MarshalJSON = %s, %v; reference %s, %v", enc, err, ref, refErr)
	}
}

// uEscapes turns each %u of s into a backslash and a u, so that the
// source can spell a JSON \u escape without holding one.
func uEscapes(s string) string { return strings.ReplaceAll(s, "%u", "\\"+"u") }

func FuzzValueJSON(f *testing.F) {
	for _, v := range edgeValues {
		if data, err := refMarshalValue(v); err == nil {
			f.Add(data)
		}
	}
	for _, s := range []string{
		`null`, `{}`, `{"n":1,"s":"x"}`, `{"s":"x","n":1}`, `{"N":2}`, `{"S":"up"}`, ` {"n" : 1 } `, `{"n":null}`,
		`{"n":"1"}`, `{"s":1}`, `{"n":01}`, `{"n":1.}`, `{"n":-}`, `{"n":1e999}`, `{"n":1E+2}`, `{"n":-0}`, `{"n":0.0}`,
		`{"n":12345678901234567890}`, `{"n":1}x`, `{"n":1}}`, `{"n":1`, uEscapes(`{"s":"%u0041%ud83d%ude00%ud800"}`), uEscapes(`{"s":"%u2028%u003c%uD83D"}`), `{"s":"\q"}`,
		`{"s":"a` + "\n" + `b"}`, `{"s":"\/"}`, `{"x":{"n":1},"n":2}`, `[{"n":1}]`, `{"n":1,"n":2}`, `{"s":"` + "\xff" + `"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		start := Str("untouched")
		got, want := start, start
		gotErr, wantErr := got.UnmarshalJSON(data), refUnmarshalValue(&want, data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalJSON(%q) error = %v, reference error = %v", data, gotErr, wantErr)
		}
		if !identical(got, want) {
			t.Fatalf("UnmarshalJSON(%q) = %#v, reference = %#v", data, got, want)
		}
		if gotErr != nil {
			return
		}
		enc, encErr := got.AppendJSON(nil)
		ref, refErr := refMarshalValue(want)
		if (encErr == nil) != (refErr == nil) || !bytes.Equal(enc, ref) && refErr == nil {
			t.Fatalf("AppendJSON(%#v) = %s, %v; reference = %s, %v", got, enc, encErr, ref, refErr)
		}
	})
}
