package constraint

import (
	"encoding/json"
	"fmt"
	"strconv"

	"infosleuth/internal/jsonwire"
)

// Values and Sets travel inside KQML message content, so they marshal to
// JSON. A Value encodes as {"n":1.5} or {"s":"40W"}; a Set encodes as its
// list of atoms, each with its Go field names as keys. Values are the
// cells of every query result and Sets ride in every advertisement and
// broker query, so both encodings are written by hand (see
// internal/jsonwire) and emit the bytes encoding/json emitted by
// reflection: for valueJSON, and for the []Atom a Set used to marshal as.
// The decoders take that one shape (a set's atoms in any order, since each
// is added to the set as it is read) and leave every other text to
// encoding/json, through valueJSON and []Atom.

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
func (v *Value) DecodeJSON(d *jsonwire.Dec) bool { return v.decodeJSON(d, true) }

// decodeJSON is DecodeJSON, with a string cut from d's shared copy of its
// text when shared is set and given memory of its own otherwise.
func (v *Value) decodeJSON(d *jsonwire.Dec, shared bool) bool {
	switch {
	case d.Lit(`{"n":`):
		n, ok := d.Number()
		*v = Num(n)
		return ok && d.Byte('}')
	case d.Lit(`{"s":`):
		var s string
		var ok bool
		if shared {
			s, ok = d.SharedString()
		} else {
			s, ok = d.String()
		}
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

// AppendJSON appends the set's JSON encoding to dst: null for a nil set,
// else the atoms in field order as
// {"Field":...,"Interval":{"HasLo":...,"HasHi":...,"Lo":...,"Hi":...,"LoOpen":...,"HiOpen":...},"Allowed":...}.
// A NaN or infinite bound or value has no encoding and is an error.
func (s *Set) AppendJSON(dst []byte) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range s.atoms {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = s.atoms[i].appendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

func (a *Atom) appendJSON(dst []byte) ([]byte, error) {
	iv := &a.Interval
	dst = jsonwire.AppendString(append(dst, `{"Field":`...), a.Field)
	dst = strconv.AppendBool(append(dst, `,"Interval":{"HasLo":`...), iv.HasLo)
	dst = strconv.AppendBool(append(dst, `,"HasHi":`...), iv.HasHi)
	dst, err := jsonwire.AppendFloat(append(dst, `,"Lo":`...), iv.Lo)
	if err != nil {
		return dst, err
	}
	if dst, err = jsonwire.AppendFloat(append(dst, `,"Hi":`...), iv.Hi); err != nil {
		return dst, err
	}
	dst = strconv.AppendBool(append(dst, `,"LoOpen":`...), iv.LoOpen)
	dst = strconv.AppendBool(append(dst, `,"HiOpen":`...), iv.HiOpen)
	dst = append(dst, `},"Allowed":`...)
	if a.Allowed == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i, v := range a.Allowed {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = v.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// MarshalJSON implements json.Marshaler.
func (s *Set) MarshalJSON() ([]byte, error) {
	return s.AppendJSON(make([]byte, 0, 128*s.Len()+2))
}

// DecodeJSON consumes a non-null set in the encoding AppendJSON writes and
// replaces s with the set its atoms build when added one by one, as
// UnmarshalJSON does for any text. It reports false for any other text;
// strings get memory of their own, since advertisements are kept for as
// long as they are advertised.
func (s *Set) DecodeJSON(d *jsonwire.Dec) bool {
	if !d.Byte('[') {
		return false
	}
	*s = Set{}
	if d.Byte(']') {
		return true
	}
	for {
		var a Atom
		if !a.decodeJSON(d) {
			return false
		}
		s.Add(a)
		if d.Byte(']') {
			return true
		}
		if !d.Byte(',') {
			return false
		}
	}
}

func (a *Atom) decodeJSON(d *jsonwire.Dec) bool {
	iv := &a.Interval
	var ok bool
	if !d.Lit(`{"Field":`) {
		return false
	}
	if a.Field, ok = d.String(); !ok || !d.Lit(`,"Interval":{"HasLo":`) {
		return false
	}
	if iv.HasLo, ok = d.Bool(); !ok || !d.Lit(`,"HasHi":`) {
		return false
	}
	if iv.HasHi, ok = d.Bool(); !ok || !d.Lit(`,"Lo":`) {
		return false
	}
	if iv.Lo, ok = d.Number(); !ok || !d.Lit(`,"Hi":`) {
		return false
	}
	if iv.Hi, ok = d.Number(); !ok || !d.Lit(`,"LoOpen":`) {
		return false
	}
	if iv.LoOpen, ok = d.Bool(); !ok || !d.Lit(`,"HiOpen":`) {
		return false
	}
	if iv.HiOpen, ok = d.Bool(); !ok || !d.Lit(`},"Allowed":`) {
		return false
	}
	if d.Lit("null") {
		return d.Byte('}')
	}
	if !d.Byte('[') {
		return false
	}
	a.Allowed = []Value{}
	if d.Byte(']') {
		return d.Byte('}')
	}
	for {
		var v Value
		if !v.decodeJSON(d, false) {
			return false
		}
		a.Allowed = append(a.Allowed, v)
		if d.Byte(']') {
			return d.Byte('}')
		}
		if !d.Byte(',') {
			return false
		}
	}
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Set) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDec(data)
	var fast Set
	if fast.DecodeJSON(&d) && d.Done() {
		*s = fast
		return nil
	}
	var atoms []Atom // Atom has no JSON methods: the method-less shape
	if err := json.Unmarshal(data, &atoms); err != nil {
		return err
	}
	*s = Set{}
	for _, a := range atoms {
		s.Add(a)
	}
	return nil
}
