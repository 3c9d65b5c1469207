package ontology

import (
	"encoding/json"
	"slices"
	"strconv"

	"infosleuth/internal/constraint"
	"infosleuth/internal/jsonwire"
)

// Advertisements and broker queries travel in KQML content on every
// advertise, unadvertise and search, and a broker's reply carries every
// advertisement it matched, so their JSON is written by hand (see
// internal/jsonwire). The encoders emit the bytes encoding/json emits for
// the structs by reflection: Go field names as keys in declaration order,
// null for nil slices, maps and pointers, map keys sorted. The decoders
// take that one shape; UnmarshalJSON hands any other text to encoding/json
// through a method-less mirror of the type. Decoded strings have memory of
// their own: a broker keeps an advertisement for as long as it is
// advertised, and a string cut from the frame would keep the frame.

// AppendJSON appends the advertisement's JSON encoding to dst, null for a
// nil advertisement. A NaN or infinite number has no encoding and is an
// error.
func (ad *Advertisement) AppendJSON(dst []byte) ([]byte, error) {
	if ad == nil {
		return append(dst, "null"...), nil
	}
	dst = jsonwire.AppendString(append(dst, `{"Name":`...), ad.Name)
	dst = jsonwire.AppendString(append(dst, `,"Address":`...), ad.Address)
	dst = jsonwire.AppendString(append(dst, `,"Type":`...), string(ad.Type))
	dst = jsonwire.AppendStrings(append(dst, `,"CommLanguages":`...), ad.CommLanguages)
	dst = jsonwire.AppendStrings(append(dst, `,"ContentLanguages":`...), ad.ContentLanguages)
	dst = jsonwire.AppendStrings(append(dst, `,"Conversations":`...), ad.Conversations)
	dst = jsonwire.AppendStrings(append(dst, `,"Capabilities":`...), ad.Capabilities)
	dst = append(dst, `,"Content":`...)
	if ad.Content == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range ad.Content {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = ad.Content[i].appendJSON(dst); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	p := &ad.Properties
	dst = strconv.AppendBool(append(dst, `,"Properties":{"Mobile":`...), p.Mobile)
	dst = strconv.AppendBool(append(dst, `,"Cloneable":`...), p.Cloneable)
	dst, err := jsonwire.AppendFloat(append(dst, `,"EstimatedResponseSec":`...), p.EstimatedResponseSec)
	if err != nil {
		return dst, err
	}
	if dst, err = jsonwire.AppendFloat(append(dst, `,"ThroughputQPS":`...), p.ThroughputQPS); err != nil {
		return dst, err
	}
	dst = strconv.AppendInt(append(dst, `,"EstimatedRows":`...), p.EstimatedRows, 10)
	dst = append(dst, `},"Broker":`...)
	if b := ad.Broker; b == nil {
		dst = append(dst, "null"...)
	} else {
		dst = jsonwire.AppendString(append(dst, `{"Community":`...), b.Community)
		dst = jsonwire.AppendStrings(append(dst, `,"Consortia":`...), b.Consortia)
		dst = jsonwire.AppendStrings(append(dst, `,"AgentTypes":`...), b.AgentTypes)
		dst = jsonwire.AppendStrings(append(dst, `,"Specializations":`...), b.Specializations)
		dst = jsonwire.AppendStrings(append(dst, `,"SpecializationClasses":`...), b.SpecializationClasses)
		dst = jsonwire.AppendStrings(append(dst, `,"ConversationTypes":`...), b.ConversationTypes)
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

func (f *Fragment) appendJSON(dst []byte) ([]byte, error) {
	dst = jsonwire.AppendString(append(dst, `{"Ontology":`...), f.Ontology)
	dst = jsonwire.AppendStrings(append(dst, `,"Classes":`...), f.Classes)
	dst = append(dst, `,"Slots":`...)
	if f.Slots == nil {
		dst = append(dst, "null"...)
	} else {
		keys := make([]string, 0, len(f.Slots))
		for k := range f.Slots {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonwire.AppendStrings(append(jsonwire.AppendString(dst, k), ':'), f.Slots[k])
		}
		dst = append(dst, '}')
	}
	dst, err := f.Constraints.AppendJSON(append(dst, `,"Constraints":`...))
	return append(dst, '}'), err
}

// DecodeJSON consumes an advertisement in the encoding AppendJSON writes
// (not null) and overwrites every field of ad with it. It reports false
// for any other text.
func (ad *Advertisement) DecodeJSON(d *jsonwire.Dec) bool {
	if !(d.Lit(`{"Name":`) && decodeString(&ad.Name, d) &&
		d.Lit(`,"Address":`) && decodeString(&ad.Address, d) &&
		d.Lit(`,"Type":`) && decodeString((*string)(&ad.Type), d) &&
		d.Lit(`,"CommLanguages":`) && decodeStrings(&ad.CommLanguages, d) &&
		d.Lit(`,"ContentLanguages":`) && decodeStrings(&ad.ContentLanguages, d) &&
		d.Lit(`,"Conversations":`) && decodeStrings(&ad.Conversations, d) &&
		d.Lit(`,"Capabilities":`) && decodeStrings(&ad.Capabilities, d) &&
		d.Lit(`,"Content":`)) {
		return false
	}
	ad.Content = nil
	if !d.Lit("null") {
		if !d.Byte('[') {
			return false
		}
		ad.Content = []Fragment{}
		for first := true; !d.Byte(']'); first = false {
			if !first && !d.Byte(',') {
				return false
			}
			var f Fragment
			if !f.decodeJSON(d) {
				return false
			}
			ad.Content = append(ad.Content, f)
		}
	}
	p := &ad.Properties
	var ok bool
	if !(d.Lit(`,"Properties":{"Mobile":`) && decodeBool(&p.Mobile, d) &&
		d.Lit(`,"Cloneable":`) && decodeBool(&p.Cloneable, d) &&
		d.Lit(`,"EstimatedResponseSec":`) && decodeNumber(&p.EstimatedResponseSec, d) &&
		d.Lit(`,"ThroughputQPS":`) && decodeNumber(&p.ThroughputQPS, d) &&
		d.Lit(`,"EstimatedRows":`)) {
		return false
	}
	if p.EstimatedRows, ok = d.Int(); !ok || !d.Lit(`},"Broker":`) {
		return false
	}
	if ad.Broker, ok = jsonwire.Ptr(d, (*BrokerInfo).decodeJSON); !ok {
		return false
	}
	return d.Byte('}')
}

func (b *BrokerInfo) decodeJSON(d *jsonwire.Dec) bool {
	if !(d.Lit(`{"Community":`) && decodeString(&b.Community, d) &&
		d.Lit(`,"Consortia":`) && decodeStrings(&b.Consortia, d) &&
		d.Lit(`,"AgentTypes":`)) {
		return false
	}
	types, ok := d.Strings()
	if !ok {
		return false
	}
	if types != nil {
		b.AgentTypes = make([]AgentType, len(types))
		for i, t := range types {
			b.AgentTypes[i] = AgentType(t)
		}
	}
	return d.Lit(`,"Specializations":`) && decodeStrings(&b.Specializations, d) &&
		d.Lit(`,"SpecializationClasses":`) && decodeStrings(&b.SpecializationClasses, d) &&
		d.Lit(`,"ConversationTypes":`) && decodeStrings(&b.ConversationTypes, d) &&
		d.Byte('}')
}

func (f *Fragment) decodeJSON(d *jsonwire.Dec) bool {
	if !(d.Lit(`{"Ontology":`) && decodeString(&f.Ontology, d) &&
		d.Lit(`,"Classes":`) && decodeStrings(&f.Classes, d) &&
		d.Lit(`,"Slots":`)) {
		return false
	}
	if !d.Lit("null") {
		if !d.Byte('{') {
			return false
		}
		// json.Marshal sorts the keys, but order has no meaning in a
		// map: any order decodes, and a repeated key keeps its last
		// value, as encoding/json has it.
		f.Slots = make(map[string][]string)
		for first := true; !d.Byte('}'); first = false {
			if !first && !d.Byte(',') {
				return false
			}
			var k string
			var slots []string
			if !decodeString(&k, d) || !d.Byte(':') || !decodeStrings(&slots, d) {
				return false
			}
			f.Slots[k] = slots
		}
	}
	var ok bool
	if !d.Lit(`,"Constraints":`) {
		return false
	}
	if f.Constraints, ok = jsonwire.Ptr(d, (*constraint.Set).DecodeJSON); !ok {
		return false
	}
	return d.Byte('}')
}

// advertisementJSON is Advertisement without its JSON methods, for
// encoding/json to decode the texts DecodeJSON leaves.
type advertisementJSON Advertisement

// MarshalJSON implements json.Marshaler.
func (ad *Advertisement) MarshalJSON() ([]byte, error) {
	return ad.AppendJSON(make([]byte, 0, 512))
}

// UnmarshalJSON implements json.Unmarshaler. A used target goes to
// encoding/json, which keeps what it holds where the text does not say
// otherwise (it merges into a map, for one).
func (ad *Advertisement) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDec(data)
	var fast Advertisement
	if ad.isZero() && fast.DecodeJSON(&d) && d.Done() {
		*ad = fast
		return nil
	}
	return json.Unmarshal(data, (*advertisementJSON)(ad))
}

func (ad *Advertisement) isZero() bool {
	return ad.Name == "" && ad.Address == "" && ad.Type == "" && ad.CommLanguages == nil && ad.ContentLanguages == nil &&
		ad.Conversations == nil && ad.Capabilities == nil && ad.Content == nil && ad.Properties == Properties{} && ad.Broker == nil
}

// AppendJSON appends the query's JSON encoding to dst, null for a nil
// query. A NaN or infinite number has no encoding and is an error.
func (q *Query) AppendJSON(dst []byte) ([]byte, error) {
	if q == nil {
		return append(dst, "null"...), nil
	}
	dst = jsonwire.AppendString(append(dst, `{"Type":`...), string(q.Type))
	dst = jsonwire.AppendString(append(dst, `,"ContentLanguage":`...), q.ContentLanguage)
	dst = jsonwire.AppendString(append(dst, `,"CommLanguage":`...), q.CommLanguage)
	dst = jsonwire.AppendStrings(append(dst, `,"Conversations":`...), q.Conversations)
	dst = jsonwire.AppendStrings(append(dst, `,"Capabilities":`...), q.Capabilities)
	dst = jsonwire.AppendString(append(dst, `,"Ontology":`...), q.Ontology)
	dst = jsonwire.AppendStrings(append(dst, `,"Classes":`...), q.Classes)
	dst = jsonwire.AppendStrings(append(dst, `,"Slots":`...), q.Slots)
	dst, err := q.Constraints.AppendJSON(append(dst, `,"Constraints":`...))
	if err != nil {
		return dst, err
	}
	if dst, err = jsonwire.AppendFloat(append(dst, `,"MaxResponseSec":`...), q.MaxResponseSec); err != nil {
		return dst, err
	}
	dst = append(dst, `,"RequireMobile":`...)
	if q.RequireMobile == nil {
		dst = append(dst, "null"...)
	} else {
		dst = strconv.AppendBool(dst, *q.RequireMobile)
	}
	dst = strconv.AppendInt(append(dst, `,"Limit":`...), int64(q.Limit), 10)
	dst = strconv.AppendInt(append(dst, `,"Policy":{"HopCount":`...), int64(q.Policy.HopCount), 10)
	dst = strconv.AppendInt(append(dst, `,"Follow":`...), int64(q.Policy.Follow), 10)
	return append(dst, "}}"...), nil
}

// DecodeJSON consumes a query in the encoding AppendJSON writes (not null)
// and overwrites every field of q with it. It reports false for any other
// text.
func (q *Query) DecodeJSON(d *jsonwire.Dec) bool {
	if !(d.Lit(`{"Type":`) && decodeString((*string)(&q.Type), d) &&
		d.Lit(`,"ContentLanguage":`) && decodeString(&q.ContentLanguage, d) &&
		d.Lit(`,"CommLanguage":`) && decodeString(&q.CommLanguage, d) &&
		d.Lit(`,"Conversations":`) && decodeStrings(&q.Conversations, d) &&
		d.Lit(`,"Capabilities":`) && decodeStrings(&q.Capabilities, d) &&
		d.Lit(`,"Ontology":`) && decodeString(&q.Ontology, d) &&
		d.Lit(`,"Classes":`) && decodeStrings(&q.Classes, d) &&
		d.Lit(`,"Slots":`) && decodeStrings(&q.Slots, d) &&
		d.Lit(`,"Constraints":`)) {
		return false
	}
	var ok bool
	if q.Constraints, ok = jsonwire.Ptr(d, (*constraint.Set).DecodeJSON); !ok {
		return false
	}
	if !(d.Lit(`,"MaxResponseSec":`) && decodeNumber(&q.MaxResponseSec, d) && d.Lit(`,"RequireMobile":`)) {
		return false
	}
	if q.RequireMobile, ok = jsonwire.Ptr(d, decodeBool); !ok {
		return false
	}
	return d.Lit(`,"Limit":`) && decodeInt(&q.Limit, d) &&
		d.Lit(`,"Policy":{"HopCount":`) && decodeInt(&q.Policy.HopCount, d) &&
		d.Lit(`,"Follow":`) && decodeInt((*int)(&q.Policy.Follow), d) &&
		d.Lit("}}")
}

// queryJSON is Query without its JSON methods, for encoding/json to decode
// the texts DecodeJSON leaves.
type queryJSON Query

// MarshalJSON implements json.Marshaler.
func (q *Query) MarshalJSON() ([]byte, error) {
	return q.AppendJSON(make([]byte, 0, 384))
}

// UnmarshalJSON implements json.Unmarshaler. A used target goes to
// encoding/json, as for an advertisement.
func (q *Query) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDec(data)
	var fast Query
	if q.isZero() && fast.DecodeJSON(&d) && d.Done() {
		*q = fast
		return nil
	}
	return json.Unmarshal(data, (*queryJSON)(q))
}

func (q *Query) isZero() bool {
	return q.Type == "" && q.ContentLanguage == "" && q.CommLanguage == "" && q.Conversations == nil && q.Capabilities == nil &&
		q.Ontology == "" && q.Classes == nil && q.Slots == nil && q.Constraints == nil && q.MaxResponseSec == 0 &&
		q.RequireMobile == nil && q.Limit == 0 && q.Policy == SearchPolicy{}
}

// The decoders' steps, shaped to chain with && and, like the methods
// jsonwire.Ptr takes, target first.

func decodeString(s *string, d *jsonwire.Dec) (ok bool) {
	*s, ok = d.String()
	return ok
}

func decodeStrings(ss *[]string, d *jsonwire.Dec) (ok bool) {
	*ss, ok = d.Strings()
	return ok
}

func decodeBool(b *bool, d *jsonwire.Dec) (ok bool) {
	*b, ok = d.Bool()
	return ok
}

func decodeNumber(f *float64, d *jsonwire.Dec) (ok bool) {
	*f, ok = d.Number()
	return ok
}

func decodeInt(n *int, d *jsonwire.Dec) (ok bool) {
	*n, ok = d.IntSize()
	return ok
}
