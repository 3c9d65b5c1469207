package relational

import (
	"bytes"

	"infosleuth/internal/constraint"
	"infosleuth/internal/jsonwire"
)

// Rows are the bulk of every query result on the wire, so they are
// encoded and decoded by hand, to the bytes encoding/json writes for
// [][]constraint.Value: null for a nil slice, [] for an empty one.

// AppendRowsJSON appends the JSON encoding of rows to dst.
func AppendRowsJSON(dst []byte, rows []Row) ([]byte, error) {
	if rows == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = v.AppendJSON(dst); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

// RowsJSONSize estimates the encoded size of rows, so an encoder can
// allocate its buffer once.
func RowsJSONSize(rows []Row) int {
	n := 2
	for _, row := range rows {
		n += 3
		for _, v := range row {
			// {"s":""}, or {"n":} and a short number, and a comma.
			n += 12 + len(v.Text())
		}
	}
	return n
}

// DecodeRowsJSON consumes rows in the encoding AppendRowsJSON writes and
// reports false for any other text. The result costs a fixed number of
// allocations whatever its size: every cell lives in one backing array,
// each Row a capacity-limited window of it, and string cells are cut from
// d's shared copy of its text. Holding on to one row or one cell therefore
// keeps the whole result alive.
func DecodeRowsJSON(d *jsonwire.Dec) ([]Row, bool) {
	if d.Lit("null") {
		return nil, true
	}
	if !d.Byte('[') {
		return nil, false
	}
	if d.Byte(']') {
		return []Row{}, true
	}
	// Every cell opens with a brace and takes at least the eight bytes of
	// {"n":1}, so either count bounds the cells from above: cells never
	// grows, and the rows cut from it stay in one array. The first is exact
	// unless strings hold braces; the second keeps a text that is all
	// braces from asking for 32 bytes of cells per byte.
	rest := d.Rest()
	maxCells := min(bytes.Count(rest, []byte{'{'}), len(rest)/8+1)
	cells := make([]constraint.Value, 0, maxCells)
	var rows []Row
	for {
		row, ok := decodeRow(d, &cells)
		if !ok {
			return nil, false
		}
		if rows == nil {
			// Results are rectangular: size for that, append covers the rest.
			rows = make([]Row, 0, maxCells/max(len(row), 1)+1)
		}
		rows = append(rows, row)
		if d.Byte(']') {
			return rows, true
		}
		if !d.Byte(',') {
			return nil, false
		}
	}
}

func decodeRow(d *jsonwire.Dec, cells *[]constraint.Value) (Row, bool) {
	if d.Lit("null") {
		return nil, true
	}
	if !d.Byte('[') {
		return nil, false
	}
	if d.Byte(']') {
		return Row{}, true
	}
	start := len(*cells)
	for {
		var v constraint.Value
		if !v.DecodeJSON(d) {
			return nil, false
		}
		*cells = append(*cells, v)
		if d.Byte(']') {
			end := len(*cells)
			return (*cells)[start:end:end], true
		}
		if !d.Byte(',') {
			return nil, false
		}
	}
}
