package constraint

import (
	"encoding/json"
	"fmt"

	"infosleuth/internal/jsonwire"
)

// Values and Sets travel inside KQML message content, so they marshal to
// JSON. A Value encodes as {"n":1.5} or {"s":"40W"}; a Set encodes as its
// list of atoms. Values are the cells of every query result, so their
// encoding is written by hand (see internal/jsonwire) and emits the bytes
// encoding/json emitted for valueJSON; Sets travel in advertisements and
// broker queries only and stay on encoding/json.

// AppendJSON appends the value's JSON encoding to dst. A NaN or infinite
// number has none and is an error.
func (v Value) AppendJSON(dst []byte) ([]byte, error) {
	if v.kind == KindNumber {
		dst, err := jsonwire.AppendFloat(append(dst, `{"n":`...), v.num)
		return append(dst, '}'), err
	}
	dst = append(dst, `{"s":`...)
	dst = jsonwire.AppendString(dst, v.str)
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	return v.AppendJSON(make([]byte, 0, len(v.str)+len(`{"s":""}`)+16))
}

// DecodeJSON consumes one value in the encoding AppendJSON writes. It
// reports false for any other text, which UnmarshalJSON still accepts or
// rejects as encoding/json would; string contents are cut from d's shared
// copy of its text.
func (v *Value) DecodeJSON(d *jsonwire.Dec) bool {
	switch {
	case d.Lit(`{"n":`):
		n, ok := d.Number()
		*v = Num(n)
		return ok && d.Byte('}')
	case d.Lit(`{"s":`):
		s, ok := d.SharedString()
		*v = Str(s)
		return ok && d.Byte('}')
	}
	return false
}

// valueJSON is the shape a Value has on the wire, for encoding/json to
// decode the texts DecodeJSON leaves: keys in another order or case,
// whitespace, unknown keys, null.
type valueJSON struct {
	N *float64 `json:"n,omitempty"`
	S *string  `json:"s,omitempty"`
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDec(data)
	var fast Value
	if fast.DecodeJSON(&d) && d.Done() {
		*v = fast
		return nil
	}
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
		// Neither present: the zero string value (e.g. {"s": ""}
		// compacted by omitempty).
		*v = Str("")
	}
	return nil
}

// MarshalJSON implements json.Marshaler; the set encodes as its atom list.
func (s *Set) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.Atoms())
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Set) UnmarshalJSON(data []byte) error {
	var atoms []Atom
	if err := json.Unmarshal(data, &atoms); err != nil {
		return err
	}
	*s = Set{}
	for _, a := range atoms {
		s.Add(a)
	}
	return nil
}
