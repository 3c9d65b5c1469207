package relational

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/jsonwire"
)

// TestRowsJSONMatchesEncodingJSON holds the hand-written row codec to what
// encoding/json does with [][]constraint.Value, nil and empty slices
// included. (The per-cell oracle is in internal/constraint, the whole-frame
// one in internal/kqml.)
func TestRowsJSONMatchesEncodingJSON(t *testing.T) {
	for _, rows := range [][]Row{
		nil,
		{},
		{nil},
		{{}},
		{{constraint.Num(1), constraint.Str("a")}, {constraint.Num(-2.5), constraint.Str("")}},
		{{constraint.Str("{{{{")}, nil, {}, {constraint.Str(`a"b<c`), constraint.Num(1e-7), constraint.Num(1e21)}},
	} {
		want, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendRowsJSON(nil, rows)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendRowsJSON(%v) = %s, %v; encoding/json = %s", rows, got, err, want)
		}
		if n := RowsJSONSize(rows); n < len(got)/2 {
			t.Errorf("RowsJSONSize = %d for %d encoded bytes", n, len(got))
		}
		d := jsonwire.NewDec(got)
		back, ok := DecodeRowsJSON(&d)
		var wantBack []Row
		if err := json.Unmarshal(want, &wantBack); err != nil {
			t.Fatal(err)
		}
		if !ok || !d.Done() || !reflect.DeepEqual(back, wantBack) {
			t.Fatalf("DecodeRowsJSON(%s) = %#v, %v; encoding/json = %#v", got, back, ok, wantBack)
		}
	}
	if out, err := AppendRowsJSON(nil, []Row{{constraint.Num(math.NaN())}}); err == nil {
		t.Errorf("AppendRowsJSON(NaN) = %s, want an error", out)
	}
}

// TestDecodeRowsJSONDeclines: anything but the shape AppendRowsJSON writes
// is left for encoding/json to judge.
func TestDecodeRowsJSONDeclines(t *testing.T) {
	for _, text := range []string{
		``, `[`, `[[`, `[[{"n":1}]`, `[[{"n":1},]]`, `[[null]]`, `[[{"n":"1"}]]`, `[[{"s":1}]]`, `[ [{"n":1}]]`, `[[{"N":1}]]`,
		`[[{"n":1,"s":"x"}]]`, `[{"n":1}]`, `{}`, `[[{"n":1e999}]]`,
	} {
		d := jsonwire.NewDec([]byte(text))
		if rows, ok := DecodeRowsJSON(&d); ok && d.Done() {
			t.Errorf("DecodeRowsJSON(%s) = %v, want it declined", text, rows)
		}
	}
}

// TestDecodeRowsJSONBoundsItsAllocation: the cell array is sized from a
// count of braces, which strings can inflate; the text's length caps it.
func TestDecodeRowsJSONBoundsItsAllocation(t *testing.T) {
	text := []byte(`[[{"s":"` + strings.Repeat("{", 1<<16) + `"}]]`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := jsonwire.NewDec(text)
	rows, ok := DecodeRowsJSON(&d)
	runtime.ReadMemStats(&after)
	if !ok || len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("DecodeRowsJSON = %d rows, %v", len(rows), ok)
	}
	// A cell is 32 bytes and a row header 24, so sizing both by the brace
	// count would allocate 56 bytes per byte of text; capped, it is 7 plus
	// the shared copy.
	if got := after.TotalAlloc - before.TotalAlloc; got > 12*uint64(len(text)) {
		t.Errorf("decoding %d bytes allocated %d", len(text), got)
	}
}
