package mrq

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/relational"
)

// fuzzNums and fuzzStrs are the cell values fuzzFragments draws from: few
// enough that replicas collide on keys, and strings that look like numbers
// so that a mixed-kind column coerces distinct values alike.
var (
	fuzzNums = []float64{0, 1, 2, 1.5, -1, math.Copysign(0, -1)}
	fuzzStrs = []string{"", "x", "y", "1", "k1", "0"}
)

// fuzzFragments decodes data into the fragment results of one class, as
// resources would answer them: every fragment carries the id column
// (spelled "id" or "ID", first or last) and names no column twice. The
// first byte picks the layout. A keyless class has one column signature;
// otherwise each fragment picks its own columns from a, b and c, so
// signatures may coincide (horizontal fragments and replicas) or differ
// (vertical fragments). Cells are numbers or strings whatever their
// column, and JSON carries no NaN or infinity, so neither appears.
func fuzzFragments(data []byte) (key string, frags []*kqml.SQLResult) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	layout := next()
	key = "id"
	if layout%8 == 7 {
		key = ""
	}
	sig := next()
	for f := 1 + int(layout>>3)%5; f > 0; f-- {
		if key != "" {
			sig = next()
		}
		id := "id"
		if sig&0x80 != 0 {
			id = "ID"
		}
		var cols []string
		for i, c := range []string{"a", "b", "c"} {
			if sig&(1<<i) != 0 {
				cols = append(cols, c)
			}
		}
		if sig&0x08 != 0 {
			cols = append(cols, id)
		} else {
			cols = append([]string{id}, cols...)
		}
		r := &kqml.SQLResult{Columns: cols}
		for n := int(next()) % 6; n > 0; n-- {
			row := make(relational.Row, len(cols))
			for i := range row {
				b := int(next())
				if b&1 == 0 {
					row[i] = constraint.Num(fuzzNums[(b>>1)%len(fuzzNums)])
				} else {
					row[i] = constraint.Str(fuzzStrs[(b>>1)%len(fuzzStrs)])
				}
			}
			r.Rows = append(r.Rows, row)
		}
		frags = append(frags, r)
	}
	return key, frags
}

// byValue and toType restate compareRows's order and coerce's rule, so
// that FuzzMergeFragments checks the merge against an oracle of its own.
func byValue(a, b relational.Row, ki int) int {
	if ki >= 0 {
		if c := a[ki].Compare(b[ki]); c != 0 {
			return c
		}
	}
	return slices.CompareFunc(a, b, constraint.Value.Compare)
}

func toType(v constraint.Value, t relational.ColType) constraint.Value {
	switch {
	case t == relational.TypeNumber && v.Kind() != constraint.KindNumber:
		return constraint.Num(0)
	case t == relational.TypeString && v.Kind() == constraint.KindNumber:
		return constraint.Str(v.String())
	}
	return v
}

// renderRow is a row's identity for set comparisons: kinds and values,
// with -0 and 0 one value, as Row.Equal has them.
func renderRow(r relational.Row) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.String())
		b.WriteByte(0)
	}
	return b.String()
}

// FuzzMergeFragments: whatever fragments resources return, MergeFragments
// builds a table whose keys (whole rows, for a keyless class) are unique
// and sorted after coercion to the column types; every key of the input
// survives; a lone column signature keeps, per key, the least coerced row
// by value; and any permutation of the fragments builds the same table.
// MergeFragments takes ownership of the rows it merges, so every merge
// runs on a fresh decoding of the input.
func FuzzMergeFragments(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 2, 2, 21, 3, 4})
	f.Add([]byte{0x10, 0x01, 0x03, 2, 2, 20, 1, 40, 0x01, 2, 2, 30, 5, 50})
	f.Add([]byte{0x18, 0x03, 3, 2, 4, 6, 3, 8, 10, 0x8c, 2, 2, 12, 14, 7, 16, 18, 0x05, 1, 2, 1, 9})
	f.Add([]byte{0x0f, 0x01, 4, 2, 2, 3, 2, 1, 1, 5, 3})
	f.Add([]byte{0x20, 0x01, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0x01, 5, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		key, frags := fuzzFragments(data)
		tbl, err := MergeFragments("C", key, frags)
		if err != nil {
			t.Fatalf("MergeFragments(%q) failed: %v", key, err)
		}
		s := tbl.Schema()
		ki := -1
		if s.Key != "" {
			ki = s.ColIndex(s.Key)
		}
		rows := tbl.Rows()
		for i := 1; i < len(rows); i++ {
			if byValue(rows[i-1], rows[i], ki) >= 0 || ki >= 0 && rows[i-1][ki].Equal(rows[i][ki]) {
				t.Fatalf("rows %d and %d are out of order or repeat a key: %v, %v", i-1, i, rows[i-1], rows[i])
			}
		}

		// Every input key survives, coerced to the key column's type;
		// with one signature, each key keeps its least coerced row.
		_, fresh := fuzzFragments(data)
		oneSig := true
		for _, fr := range fresh {
			oneSig = oneSig && slices.EqualFunc(fr.Columns, fresh[0].Columns, strings.EqualFold)
		}
		least := make(map[string]relational.Row)
		for _, fr := range fresh {
			fki := slices.IndexFunc(fr.Columns, func(c string) bool { return ki >= 0 && strings.EqualFold(c, s.Key) })
			for _, row := range fr.Rows {
				var k string
				if fki >= 0 {
					k = renderRow(relational.Row{toType(row[fki], s.Columns[ki].Type)})
				}
				if oneSig {
					for i := range row {
						row[i] = toType(row[i], s.Columns[i].Type)
					}
					if fki < 0 {
						k = renderRow(row)
					}
				}
				if prev, ok := least[k]; !ok || oneSig && byValue(row, prev, fki) < 0 {
					least[k] = row
				}
			}
		}
		if len(least) != len(rows) {
			t.Fatalf("%d distinct keys in, %d rows out", len(least), len(rows))
		}
		for _, row := range rows {
			k := renderRow(row)
			if ki >= 0 {
				k = renderRow(row[ki : ki+1])
			}
			want, ok := least[k]
			if !ok {
				t.Fatalf("row %v has a key no fragment holds", row)
			}
			if oneSig && !row.Equal(want) {
				t.Fatalf("kept %v, want the least row by value %v", row, want)
			}
		}

		// Any order of the fragments builds the same table.
		hash := fnv.New64a()
		hash.Write(data)
		rng := rand.New(rand.NewSource(int64(hash.Sum64())))
		for p := 0; p < 2; p++ {
			_, again := fuzzFragments(data)
			if p == 0 {
				slices.Reverse(again)
			} else {
				rng.Shuffle(len(again), func(i, j int) { again[i], again[j] = again[j], again[i] })
			}
			other, err := MergeFragments("C", key, again)
			if err != nil {
				t.Fatalf("a permutation failed to merge: %v", err)
			}
			got := other.Schema()
			if !strings.EqualFold(got.Key, s.Key) || !slices.EqualFunc(got.Columns, s.Columns, func(a, b relational.Column) bool {
				return strings.EqualFold(a.Name, b.Name) && a.Type == b.Type
			}) {
				t.Fatalf("a permutation changed the schema: %+v, want %+v", got, s)
			}
			if !slices.EqualFunc(other.Rows(), rows, relational.Row.Equal) {
				t.Fatalf("a permutation changed the rows:\n%v\nwant\n%v", other.Rows(), rows)
			}
		}
	})
}
