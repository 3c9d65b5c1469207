package kqml

import (
	"encoding/json"
	"fmt"
	"strconv"

	"infosleuth/internal/jsonwire"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
)

// The wire codec. A frame is the JSON object encoding/json writes for a
// Message, and content is the JSON it writes for the payload struct; this
// file produces and consumes those same bytes without reflection for the
// envelope and for the payloads on the measured paths: the ones that
// carry rows (SQLResult, alone or inside UpdateContent and SubscribeAck),
// and the ones on every search, advertise and query hop (AdvertiseContent,
// BrokerQuery, BrokerReply and SQLQuery, over the advertisement, query and
// constraint-set codecs of internal/ontology and internal/constraint).
// The trace annex and the payloads off those paths (recruit, sorry,
// update acks, ontology replies, monitor snapshots) go through
// encoding/json, as does any input the hand-written decoders do not
// recognize: they handle the one shape the encoders emit and leave the
// question of what else is acceptable to encoding/json.

// Marshal frames a message for the wire.
func Marshal(m *Message) ([]byte, error) {
	return AppendMessage(make([]byte, 0, m.frameSizeHint()), m)
}

// frameSizeHint is about how long m's frame is, for sizing a buffer.
func (m *Message) frameSizeHint() int {
	return 192 + len(m.Sender) + len(m.Receiver) + len(m.ReplyTo) + len(m.Language) + len(m.Ontology) +
		len(m.ReplyWith) + len(m.InReplyTo) + len(m.TraceID) + 128*len(m.Trace) + len(m.Content)
}

// AppendMessage appends m's frame to dst: Marshal into a buffer the
// caller owns.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	dst = append(dst, `{"performative":`...)
	dst = jsonwire.AppendString(dst, string(m.Performative))
	dst = append(dst, `,"sender":`...)
	dst = jsonwire.AppendString(dst, m.Sender)
	for _, f := range [...]struct{ key, val string }{
		{`,"receiver":`, m.Receiver},
		{`,"reply-to":`, m.ReplyTo},
		{`,"language":`, m.Language},
		{`,"ontology":`, m.Ontology},
		{`,"reply-with":`, m.ReplyWith},
		{`,"in-reply-to":`, m.InReplyTo},
		{`,"trace-id":`, m.TraceID},
	} {
		if f.val != "" {
			dst = append(dst, f.key...)
			dst = jsonwire.AppendString(dst, f.val)
		}
	}
	if len(m.Trace) > 0 {
		annex, err := json.Marshal(m.Trace)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"trace":`...), annex...)
	}
	if len(m.Content) > 0 {
		content := []byte(m.Content)
		if !m.contentIsEncoded() {
			// Content of unknown origin is validated, compacted and
			// HTML-escaped, as json.Marshal does with a RawMessage.
			var err error
			if content, err = json.Marshal(m.Content); err != nil {
				return dst, err
			}
		}
		dst = append(append(dst, `,"content":`...), content...)
	}
	return append(dst, '}'), nil
}

// contentIsEncoded reports whether Content is still the slice SetContent
// stored, which is compact, escaped JSON by construction and is copied
// into the frame as it stands.
func (m *Message) contentIsEncoded() bool {
	return len(m.Content) == len(m.encoded) && len(m.Content) > 0 && &m.Content[0] == &m.encoded[0]
}

// Unmarshal parses a wire frame. The message keeps data: Content is a
// window of it, so the caller must not reuse the slice.
func Unmarshal(data []byte) (*Message, error) {
	m := new(Message)
	if !m.decodeEnvelope(data) {
		*m = Message{}
		if err := json.Unmarshal(data, m); err != nil {
			return nil, fmt.Errorf("kqml: bad message frame: %w", err)
		}
	}
	if m.Performative == "" {
		return nil, fmt.Errorf("kqml: message missing performative")
	}
	return m, nil
}

// decodeEnvelope decodes a frame in the shape AppendMessage writes, in one
// pass: the envelope fields in struct order, Content delimited and checked
// for validity but not decoded or copied.
func (m *Message) decodeEnvelope(data []byte) bool {
	d := jsonwire.NewDec(data)
	if !d.Lit(`{"performative":`) {
		return false
	}
	p, ok := d.String()
	if !ok || !d.Lit(`,"sender":`) {
		return false
	}
	m.Performative = Performative(p)
	if m.Sender, ok = d.String(); !ok {
		return false
	}
	for _, f := range [...]struct {
		key string
		val *string
	}{
		{`,"receiver":`, &m.Receiver},
		{`,"reply-to":`, &m.ReplyTo},
		{`,"language":`, &m.Language},
		{`,"ontology":`, &m.Ontology},
		{`,"reply-with":`, &m.ReplyWith},
		{`,"in-reply-to":`, &m.InReplyTo},
		{`,"trace-id":`, &m.TraceID},
	} {
		if d.Lit(f.key) {
			if *f.val, ok = d.String(); !ok {
				return false
			}
		}
	}
	if d.Lit(`,"trace":`) && !decodeAnnex(&d, &m.Trace) {
		return false
	}
	if d.Lit(`,"content":`) {
		if m.Content, ok = d.Raw(); !ok {
			return false
		}
	}
	return d.Byte('}') && d.Done()
}

// decodeAnnex consumes one value of any shape and has encoding/json decode
// it into v.
func decodeAnnex(d *jsonwire.Dec, v any) bool {
	raw, ok := d.Raw()
	return ok && json.Unmarshal(raw, v) == nil
}

// SetContent encodes a payload into the message.
func (m *Message) SetContent(v any) error {
	data, err := encodeContent(v)
	if err != nil {
		return fmt.Errorf("kqml: encoding %T content: %w", v, err)
	}
	m.Content, m.encoded = data, data
	return nil
}

func encodeContent(v any) ([]byte, error) {
	switch c := v.(type) {
	case *SQLResult:
		if c != nil {
			return c.appendJSON(make([]byte, 0, c.jsonSizeHint()))
		}
	case *UpdateContent:
		if c != nil {
			return c.appendJSON(make([]byte, 0, 96+len(c.SubscriptionID)+len(c.SQL)+c.Result.jsonSizeHint()))
		}
	case *SubscribeAck:
		if c != nil {
			return c.appendJSON(make([]byte, 0, 32+len(c.ID)+c.Initial.jsonSizeHint()))
		}
	case *AdvertiseContent:
		if c != nil {
			dst, err := c.Ad.AppendJSON(append(make([]byte, 0, adSizeHint+8), `{"ad":`...))
			return append(dst, '}'), err
		}
	case *BrokerQuery:
		if c != nil {
			return c.appendJSON(make([]byte, 0, 448))
		}
	case *BrokerReply:
		if c != nil {
			return c.appendJSON(make([]byte, 0, 64+adSizeHint*len(c.Matches)))
		}
	case *SQLQuery:
		if c != nil {
			return append(jsonwire.AppendString(append(make([]byte, 0, 12+len(c.SQL)), `{"sql":`...), c.SQL), '}'), nil
		}
	}
	return json.Marshal(v)
}

// adSizeHint is about how long an advertisement's JSON is.
const adSizeHint = 576

func (q *BrokerQuery) appendJSON(dst []byte) ([]byte, error) {
	dst, err := q.Query.AppendJSON(append(dst, `{"query":`...))
	if err != nil {
		return dst, err
	}
	dst = strconv.AppendInt(append(dst, `,"hops_left":`...), int64(q.HopsLeft), 10)
	if len(q.Visited) > 0 {
		dst = jsonwire.AppendStrings(append(dst, `,"visited":`...), q.Visited)
	}
	if q.Forwarded {
		dst = append(dst, `,"forwarded":true`...)
	}
	if q.Depth != 0 {
		dst = strconv.AppendInt(append(dst, `,"depth":`...), int64(q.Depth), 10)
	}
	if q.Holder != "" {
		dst = jsonwire.AppendString(append(dst, `,"holder":`...), q.Holder)
	}
	return append(dst, '}'), nil
}

func (r *BrokerReply) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"matches":`...)
	if r.Matches == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, ad := range r.Matches {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = ad.AppendJSON(dst); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if len(r.Brokers) > 0 {
		dst = jsonwire.AppendStrings(append(dst, `,"brokers":`...), r.Brokers)
	}
	if len(r.Degraded) > 0 {
		dst = jsonwire.AppendStrings(append(dst, `,"degraded":`...), r.Degraded)
	}
	if r.Granted {
		dst = append(dst, `,"granted":true`...)
	}
	return append(dst, '}'), nil
}

func (u *UpdateContent) appendJSON(dst []byte) ([]byte, error) {
	dst = jsonwire.AppendString(append(dst, `{"subscription_id":`...), u.SubscriptionID)
	dst = jsonwire.AppendString(append(dst, `,"sql":`...), u.SQL)
	dst, err := u.Result.appendJSON(append(dst, `,"result":`...))
	if err != nil {
		return dst, err
	}
	if u.Seq != 0 {
		dst = strconv.AppendUint(append(dst, `,"seq":`...), u.Seq, 10)
	}
	if u.Coalesced != 0 {
		dst = strconv.AppendInt(append(dst, `,"coalesced":`...), int64(u.Coalesced), 10)
	}
	return append(dst, '}'), nil
}

func (a *SubscribeAck) appendJSON(dst []byte) ([]byte, error) {
	dst = jsonwire.AppendString(append(dst, `{"id":`...), a.ID)
	dst, err := a.Initial.appendJSON(append(dst, `,"initial":`...))
	return append(dst, '}'), err
}

func (r *SQLResult) jsonSizeHint() int {
	n := 64 + relational.RowsJSONSize(r.Rows)
	for _, c := range r.Columns {
		n += len(c) + 3
	}
	return n
}

func (r *SQLResult) appendJSON(dst []byte) ([]byte, error) {
	dst = jsonwire.AppendStrings(append(dst, `{"columns":`...), r.Columns)
	dst, err := relational.AppendRowsJSON(append(dst, `,"rows":`...), r.Rows)
	if err != nil {
		return dst, err
	}
	if r.Partial {
		dst = append(dst, `,"partial":true`...)
	}
	if len(r.Degraded) > 0 {
		annex, err := json.Marshal(r.Degraded)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"degraded":`...), annex...)
	}
	return append(dst, '}'), nil
}

// DecodeContent decodes the message payload into v.
func (m *Message) DecodeContent(v any) error {
	if len(m.Content) == 0 {
		return fmt.Errorf("kqml: %s message from %s has no content", m.Performative, m.Sender)
	}
	if decodeContent(m.Content, v) {
		return nil
	}
	if err := json.Unmarshal(m.Content, v); err != nil {
		return fmt.Errorf("kqml: decoding %s content into %T: %w", m.Performative, v, err)
	}
	return nil
}

// decodeContent decodes the hand-written payloads from the shape
// encodeContent writes. It fills only a zero target, because
// json.Unmarshal, which it stands in for, keeps what a used target holds
// for every key the text omits.
func decodeContent(data []byte, v any) bool {
	d := jsonwire.NewDec(data)
	switch c := v.(type) {
	case *SQLResult:
		var r SQLResult
		if c != nil && c.isZero() && r.decodeJSON(&d) && d.Done() {
			*c = r
			return true
		}
	case *UpdateContent:
		var u UpdateContent
		if c != nil && c.SubscriptionID == "" && c.SQL == "" && c.Result.isZero() && c.Seq == 0 && c.Coalesced == 0 &&
			u.decodeJSON(&d) && d.Done() {
			*c = u
			return true
		}
	case *SubscribeAck:
		var a SubscribeAck
		if c != nil && c.ID == "" && c.Initial.isZero() && a.decodeJSON(&d) && d.Done() {
			*c = a
			return true
		}
	case *AdvertiseContent:
		var a AdvertiseContent
		if c != nil && c.Ad == nil && a.decodeJSON(&d) && d.Done() {
			*c = a
			return true
		}
	case *BrokerQuery:
		var q BrokerQuery
		if c != nil && c.Query == nil && c.HopsLeft == 0 && c.Visited == nil && !c.Forwarded && c.Depth == 0 && c.Holder == "" &&
			q.decodeJSON(&d) && d.Done() {
			*c = q
			return true
		}
	case *BrokerReply:
		var r BrokerReply
		if c != nil && c.Matches == nil && c.Brokers == nil && c.Degraded == nil && !c.Granted && r.decodeJSON(&d) && d.Done() {
			*c = r
			return true
		}
	case *SQLQuery:
		if c != nil && c.SQL == "" && d.Lit(`{"sql":`) {
			if sql, ok := d.String(); ok && d.Byte('}') && d.Done() {
				c.SQL = sql
				return true
			}
		}
	}
	return false
}

func (a *AdvertiseContent) decodeJSON(d *jsonwire.Dec) bool {
	var ok bool
	if !d.Lit(`{"ad":`) {
		return false
	}
	if a.Ad, ok = jsonwire.Ptr(d, (*ontology.Advertisement).DecodeJSON); !ok {
		return false
	}
	return d.Byte('}')
}

func (q *BrokerQuery) decodeJSON(d *jsonwire.Dec) bool {
	var ok bool
	if !d.Lit(`{"query":`) {
		return false
	}
	if q.Query, ok = jsonwire.Ptr(d, (*ontology.Query).DecodeJSON); !ok || !d.Lit(`,"hops_left":`) {
		return false
	}
	if q.HopsLeft, ok = d.IntSize(); !ok {
		return false
	}
	if d.Lit(`,"visited":`) {
		if q.Visited, ok = d.Strings(); !ok {
			return false
		}
	}
	if d.Lit(`,"forwarded":`) {
		if q.Forwarded, ok = d.Bool(); !ok {
			return false
		}
	}
	if d.Lit(`,"depth":`) {
		if q.Depth, ok = d.IntSize(); !ok {
			return false
		}
	}
	if d.Lit(`,"holder":`) {
		if q.Holder, ok = d.String(); !ok {
			return false
		}
	}
	return d.Byte('}')
}

func (r *BrokerReply) decodeJSON(d *jsonwire.Dec) bool {
	if !d.Lit(`{"matches":`) {
		return false
	}
	if !d.Lit("null") {
		if !d.Byte('[') {
			return false
		}
		r.Matches = []*ontology.Advertisement{}
		for first := true; !d.Byte(']'); first = false {
			if !first && !d.Byte(',') {
				return false
			}
			ad, ok := jsonwire.Ptr(d, (*ontology.Advertisement).DecodeJSON)
			if !ok {
				return false
			}
			r.Matches = append(r.Matches, ad)
		}
	}
	var ok bool
	if d.Lit(`,"brokers":`) {
		if r.Brokers, ok = d.Strings(); !ok {
			return false
		}
	}
	if d.Lit(`,"degraded":`) {
		if r.Degraded, ok = d.Strings(); !ok {
			return false
		}
	}
	if d.Lit(`,"granted":`) {
		if r.Granted, ok = d.Bool(); !ok {
			return false
		}
	}
	return d.Byte('}')
}

func (r *SQLResult) isZero() bool {
	return r.Columns == nil && r.Rows == nil && !r.Partial && r.Degraded == nil
}

func (r *SQLResult) decodeJSON(d *jsonwire.Dec) bool {
	if !d.Lit(`{"columns":`) {
		return false
	}
	var ok bool
	if r.Columns, ok = d.SharedStrings(); !ok || !d.Lit(`,"rows":`) {
		return false
	}
	if r.Rows, ok = relational.DecodeRowsJSON(d); !ok {
		return false
	}
	if d.Lit(`,"partial":`) {
		if r.Partial = d.Lit("true"); !r.Partial && !d.Lit("false") {
			return false
		}
	}
	if d.Lit(`,"degraded":`) && !decodeAnnex(d, &r.Degraded) {
		return false
	}
	return d.Byte('}')
}

func (u *UpdateContent) decodeJSON(d *jsonwire.Dec) bool {
	if !d.Lit(`{"subscription_id":`) {
		return false
	}
	var ok bool
	// The id and the statement get memory of their own: a subscriber keeps
	// them (as map keys, in logs) long after it has dropped the rows.
	if u.SubscriptionID, ok = d.String(); !ok || !d.Lit(`,"sql":`) {
		return false
	}
	if u.SQL, ok = d.String(); !ok || !d.Lit(`,"result":`) || !u.Result.decodeJSON(d) {
		return false
	}
	if d.Lit(`,"seq":`) {
		if u.Seq, ok = d.Uint(); !ok {
			return false
		}
	}
	if d.Lit(`,"coalesced":`) {
		if u.Coalesced, ok = d.IntSize(); !ok {
			return false
		}
	}
	return d.Byte('}')
}

func (a *SubscribeAck) decodeJSON(d *jsonwire.Dec) bool {
	if !d.Lit(`{"id":`) {
		return false
	}
	var ok bool
	// Like an update's id, the id is kept by the subscriber: its own memory.
	if a.ID, ok = d.String(); !ok || !d.Lit(`,"initial":`) {
		return false
	}
	return a.Initial.decodeJSON(d) && d.Byte('}')
}
