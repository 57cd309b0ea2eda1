package serve

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// The /batch wire codec: a single-pass scanner that decodes a BatchRequest
// without reflection, and an append encoder for BatchResponse. It is the
// only codec on the /batch path; every other endpoint uses encoding/json.
//
// Decoding keeps the go1.24 encoding/json semantics for a BatchRequest
// target exactly (FuzzBatchDecode checks them against encoding/json):
//
//   - object keys match field names by bytes.EqualFold on the unescaped
//     key ("ſtaleness" names staleness, "queries" names queries);
//   - unknown fields are skipped, but their syntax is still validated
//     (including the 10000-level nesting limit);
//   - a repeated key decodes again into the same field; a repeated
//     "queries" decodes into the existing elements, and elements a shorter
//     array cut off keep their values when a longer one exposes them again
//     (an empty array or null in between drops them);
//   - null leaves a string or int32 field (and a query element) unchanged,
//     and resets "queries"; a top-level null is an empty request;
//   - a top-level value that is not an object or null is an error, and so is
//     an empty body; bytes after the first value are ignored;
//   - int32 fields take only in-range integer literals (no fraction, no
//     exponent, no quoted numbers); -0 is 0;
//   - strings have lone surrogates and invalid UTF-8 replaced by U+FFFD.
//
// Every rejection is an error; the handler maps it to 400.

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// maxPooledBatchBytes bounds what a batch scratch may hold and still return
// to the pool, so one MaxBatch request cannot pin 64 MiB.
const maxPooledBatchBytes = 1 << 20

// batchScratch is the pooled per-request memory of the /batch handler: the
// request body, reused for the encoded response once the queries are
// decoded, and the decoded queries.
type batchScratch struct {
	buf     []byte
	queries []Query
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func putBatchScratch(sc *batchScratch) {
	if cap(sc.buf) > maxPooledBatchBytes || cap(sc.queries)*int(unsafe.Sizeof(Query{})) > maxPooledBatchBytes {
		return
	}
	batchPool.Put(sc)
}

// readBody appends everything r yields to b.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, max(512, cap(b)))
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// Field names and interned string values. Keys compare with
// bytes.EqualFold, so the names are byte slices.
var (
	nameQueries   = []byte("queries")
	nameStaleness = []byte("staleness")
	nameKind      = []byte("kind")
	nameU         = []byte("u")
	nameV         = []byte("v")

	litNull  = []byte("null")
	litTrue  = []byte("true")
	litFalse = []byte("false")

	// kindValues and stalenessValues are the strings a decoded Kind or
	// Staleness is interned against: a known value shares the constant's
	// storage, so decoding it allocates nothing.
	kindValues      = kindStrings(Kinds)
	stalenessValues = []string{StalenessStrict, StalenessBounded}
)

func kindStrings(ks []Kind) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return out
}

// batchDecodeError is a rejected /batch body: what was wrong and the byte
// offset where the decoder found it.
type batchDecodeError struct {
	msg string
	off int
}

func (e *batchDecodeError) Error() string {
	return fmt.Sprintf("%s at offset %d", e.msg, e.off)
}

// batchDecoder is the scanner state over one /batch body.
type batchDecoder struct {
	data []byte
	pos  int
	// qs is the decode target; its length is the length of the Queries
	// slice encoding/json would hold at this point of the body.
	qs []Query
	// hw bounds the elements this decode has exposed: qs[len(qs):hw] keep
	// their values if a later "queries" array exposes them again, and
	// everything from hw to cap(qs) counts as zero.
	hw int
	// str holds an unescaped key or string value.
	str [32]byte
}

// decodeBatchRequest decodes a /batch body into req with encoding/json's
// semantics (see the top of this file). It decodes into the backing array
// of req.Queries, treating its elements past len(req.Queries) as zero, and
// never aliases data: known kinds and staleness values are interned and any
// other string is copied, so the caller may reuse data once it returns.
//
//wec:noalloc
func decodeBatchRequest(data []byte, req *BatchRequest) error {
	d := batchDecoder{data: data, qs: req.Queries, hw: len(req.Queries)}
	err := d.request(req)
	req.Queries = d.qs
	return err
}

//wec:noalloc
func (d *batchDecoder) fail(msg string) error {
	return &batchDecodeError{msg: msg, off: d.pos} //wec:alloc rejection path, not the decode of a valid body
}

// failAt reports an unexpected byte, or the end of the body.
//
//wec:noalloc
func (d *batchDecoder) failAt() error {
	if d.pos >= len(d.data) {
		return d.fail("unexpected end of JSON input")
	}
	return d.fail("invalid character " + strconv.QuoteRune(rune(d.data[d.pos]))) //wec:alloc rejection path, not the decode of a valid body
}

//wec:noalloc
func (d *batchDecoder) skipSpace() {
	pos := d.pos
	for pos < len(d.data) && jsonSpace[d.data[pos]] {
		pos++
	}
	d.pos = pos
}

// jsonSpace marks the four JSON whitespace bytes.
var jsonSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// peek returns the byte at the cursor, or 0 at the end of the body (0 is
// never valid there).
//
//wec:noalloc
func (d *batchDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

//wec:noalloc
func (d *batchDecoder) request(req *BatchRequest) error {
	d.skipSpace()
	switch d.peek() {
	case 'n':
		return d.literal(litNull)
	case '{':
	case 0:
		return d.fail("empty body")
	default:
		return d.fail("request body is not a JSON object")
	}
	d.pos++
	for more := d.objectStart(); more; {
		key, err := d.key()
		if err != nil {
			return err
		}
		switch {
		case bytes.EqualFold(key, nameQueries):
			err = d.queries()
		case bytes.EqualFold(key, nameStaleness):
			var s string
			var set bool
			if s, set, err = d.stringValue(stalenessValues); set {
				req.Staleness = s
			}
		default:
			err = d.skipValue(1)
		}
		if err != nil {
			return err
		}
		if more, err = d.objectNext(); err != nil {
			return err
		}
	}
	return nil
}

// objectStart follows an object's '{': more reports whether a key follows.
//
//wec:noalloc
func (d *batchDecoder) objectStart() (more bool) {
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return false
	}
	return true
}

// objectNext follows a member value: more reports whether another key
// follows the ','; false means the object closed.
//
//wec:noalloc
func (d *batchDecoder) objectNext() (more bool, err error) {
	d.skipSpace()
	switch d.peek() {
	case ',':
		d.pos++
		d.skipSpace()
		return true, nil
	case '}':
		d.pos++
		return false, nil
	}
	return false, d.failAt()
}

// key scans `"name" :` and returns the unescaped name, leaving the cursor
// on the value.
//
//wec:noalloc
func (d *batchDecoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.failAt()
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if !plain {
		raw = appendUnquoted(d.str[:0], raw)
	}
	d.skipSpace()
	if d.peek() != ':' {
		return nil, d.failAt()
	}
	d.pos++
	d.skipSpace()
	return raw, nil
}

// queries decodes the "queries" value into d.qs the way encoding/json
// decodes an array into an existing slice.
//
//wec:noalloc
func (d *batchDecoder) queries() error {
	switch d.peek() {
	case 'n':
		d.qs, d.hw = d.qs[:0], 0
		return d.literal(litNull)
	case '[':
	default:
		return d.typeError()
	}
	d.pos++
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		d.qs, d.hw = d.qs[:0], 0
		return nil
	}
	i := 0
	for {
		if i == len(d.qs) {
			d.expose()
		}
		switch d.peek() {
		case '{':
			if err := d.query(&d.qs[i]); err != nil {
				return err
			}
		case 'n':
			if err := d.literal(litNull); err != nil {
				return err
			}
		default:
			return d.typeError()
		}
		i++
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
			continue
		case ']':
			d.pos++
			d.qs = d.qs[:i]
			return nil
		}
		return d.failAt()
	}
}

// expose lengthens d.qs by one element: zero unless this decode wrote it
// before.
//
//wec:noalloc
func (d *batchDecoder) expose() {
	n := len(d.qs)
	if n == cap(d.qs) {
		d.qs = append(d.qs, Query{}) //wec:alloc amortized growth of the pooled query slice
	} else {
		d.qs = d.qs[:n+1]
		if n >= d.hw {
			d.qs[n] = Query{}
		}
	}
	d.hw = max(d.hw, n+1)
}

// query decodes one query object into q.
//
//wec:noalloc
func (d *batchDecoder) query(q *Query) error {
	d.pos++
	for more := d.objectStart(); more; {
		key, err := d.key()
		if err != nil {
			return err
		}
		var s string
		var set bool
		switch {
		case bytes.EqualFold(key, nameKind):
			if s, set, err = d.stringValue(kindValues); set {
				q.Kind = Kind(s)
			}
		case bytes.EqualFold(key, nameU):
			err = d.int32Value(&q.U)
		case bytes.EqualFold(key, nameV):
			err = d.int32Value(&q.V)
		case bytes.EqualFold(key, nameStaleness):
			if s, set, err = d.stringValue(stalenessValues); set {
				q.Staleness = s
			}
		default:
			err = d.skipValue(3)
		}
		if err != nil {
			return err
		}
		if more, err = d.objectNext(); err != nil {
			return err
		}
	}
	return nil
}

// typeError rejects a value of the wrong JSON type for its field.
//
//wec:noalloc
func (d *batchDecoder) typeError() error {
	if d.pos >= len(d.data) {
		return d.failAt()
	}
	return d.fail("value of the wrong type")
}

// stringValue decodes a string field's value. set is false for null, which
// leaves the field unchanged. A value equal to one of known returns that
// string; any other value is copied out of the body.
//
//wec:noalloc
func (d *batchDecoder) stringValue(known []string) (s string, set bool, err error) {
	switch d.peek() {
	case 'n':
		return "", false, d.literal(litNull)
	case '"':
	default:
		return "", false, d.typeError()
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return "", false, err
	}
	if !plain {
		raw = appendUnquoted(d.str[:0], raw)
	}
	for _, k := range known {
		if bytesEqualString(raw, k) {
			return k, true, nil
		}
	}
	return string(raw), true, nil //wec:alloc unknown string values are copied so they never alias the pooled body
}

//wec:noalloc
func bytesEqualString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// int32Value decodes an int32 field's value: an integer literal in range,
// or null, which leaves the field unchanged.
//
//wec:noalloc
func (d *batchDecoder) int32Value(dst *int32) error {
	c := d.peek()
	if c == 'n' {
		return d.literal(litNull)
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.typeError()
	}
	data, pos := d.data, d.pos
	neg := c == '-'
	if neg {
		pos++
	}
	start := pos
	var v int64
	for ; pos < len(data) && data[pos] >= '0' && data[pos] <= '9'; pos++ {
		v = v*10 + int64(data[pos]-'0')
		if v > 1<<31 {
			d.pos = pos
			return d.fail("number out of int32 range")
		}
	}
	d.pos = pos
	switch {
	case pos == start:
		return d.failAt()
	case data[start] == '0' && pos > start+1:
		d.pos = start + 1
		return d.failAt()
	}
	switch d.peek() {
	case '.', 'e', 'E':
		return d.fail("number is not an integer")
	}
	if neg {
		v = -v
	}
	if v > 1<<31-1 {
		return d.fail("number out of int32 range")
	}
	*dst = int32(v)
	return nil
}

// literal consumes the exact literal lit.
//
//wec:noalloc
func (d *batchDecoder) literal(lit []byte) error {
	for _, c := range lit {
		if d.peek() != c {
			return d.failAt()
		}
		d.pos++
	}
	return nil
}

// jsonStringPlain marks the bytes a JSON string may hold verbatim with no
// unescaping: printable ASCII other than '"' and '\\'.
var jsonStringPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString validates the string at the cursor and returns its raw
// contents between the quotes; plain is false when it holds an escape or a
// non-ASCII byte and must go through appendUnquoted.
//
//wec:noalloc
func (d *batchDecoder) scanString() (raw []byte, plain bool, err error) {
	start := d.pos + 1
	pos := start
	for pos < len(d.data) && jsonStringPlain[d.data[pos]] {
		pos++
	}
	if pos < len(d.data) && d.data[pos] == '"' {
		d.pos = pos + 1
		return d.data[start:pos], true, nil
	}
	d.pos = pos
	plain = true
	for {
		for d.pos < len(d.data) && jsonStringPlain[d.data[d.pos]] {
			d.pos++
		}
		if d.pos >= len(d.data) {
			return nil, false, d.failAt()
		}
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], plain, nil
		case c == '\\':
			plain = false
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for j := 0; j < 4; j++ {
					if !isHex(d.peek()) {
						return nil, false, d.failAt()
					}
					d.pos++
				}
			default:
				return nil, false, d.failAt()
			}
		case c < 0x20:
			return nil, false, d.failAt()
		default:
			plain = false
			d.pos++
		}
	}
}

//wec:noalloc
func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skipValue validates and skips the value at the cursor; depth is the
// number of arrays and objects enclosing it.
//
//wec:noalloc
func (d *batchDecoder) skipValue(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == '{':
		if depth >= maxNestingDepth {
			return d.fail("exceeded max depth")
		}
		d.pos++
		for more := d.objectStart(); more; {
			_, err := d.key()
			if err == nil {
				err = d.skipValue(depth + 1)
			}
			if err == nil {
				more, err = d.objectNext()
			}
			if err != nil {
				return err
			}
		}
		return nil
	case c == '[':
		if depth >= maxNestingDepth {
			return d.fail("exceeded max depth")
		}
		d.pos++
		d.skipSpace()
		if d.peek() == ']' {
			d.pos++
			return nil
		}
		for {
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			d.skipSpace()
			switch d.peek() {
			case ',':
				d.pos++
				d.skipSpace()
				continue
			case ']':
				d.pos++
				return nil
			}
			return d.failAt()
		}
	case c == 't':
		return d.literal(litTrue)
	case c == 'f':
		return d.literal(litFalse)
	case c == 'n':
		return d.literal(litNull)
	case c == '-' || c >= '0' && c <= '9':
		return d.skipNumber()
	}
	return d.failAt()
}

// skipNumber validates and skips a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
//
//wec:noalloc
func (d *batchDecoder) skipNumber() error {
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case c >= '1' && c <= '9':
		d.skipDigits()
	default:
		return d.failAt()
	}
	if d.peek() == '.' {
		d.pos++
		if !d.skipDigits() {
			return d.failAt()
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.skipDigits() {
			return d.failAt()
		}
	}
	return nil
}

// skipDigits skips a run of decimal digits and reports whether it was
// non-empty.
//
//wec:noalloc
func (d *batchDecoder) skipDigits() bool {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// appendUnquoted appends the unescaped form of a validated JSON string's
// raw contents to dst, replacing invalid UTF-8 and lone surrogates with
// U+FFFD exactly as encoding/json does. It serves only strings holding an
// escape or a non-ASCII byte.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch raw[i+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						r2 = hex4(raw[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, raw[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// hex4 decodes the four validated hex digits at the start of b.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendBatchResponse appends exactly the bytes
// json.NewEncoder(w).Encode(BatchResponse{Results: results, Count:
// len(results)}) writes, trailing newline included.
//
//wec:noalloc
func appendBatchResponse(dst []byte, results []Result) []byte {
	if results == nil {
		dst = append(dst, `{"results":null`...) //wec:alloc amortized growth of the pooled response buffer
	} else {
		dst = append(dst, `{"results":[`...) //wec:alloc amortized growth of the pooled response buffer
		for i := range results {
			if i > 0 {
				dst = append(dst, ',') //wec:alloc amortized growth of the pooled response buffer
			}
			dst = appendResult(dst, &results[i])
		}
		dst = append(dst, ']') //wec:alloc amortized growth of the pooled response buffer
	}
	dst = append(dst, `,"count":`...) //wec:alloc amortized growth of the pooled response buffer
	dst = strconv.AppendInt(dst, int64(len(results)), 10)
	return append(dst, "}\n"...) //wec:alloc amortized growth of the pooled response buffer
}

// appendResult appends one Result's JSON object: its fields in declaration
// order, each omitted when empty.
//
//wec:noalloc
func appendResult(dst []byte, r *Result) []byte {
	sep := byte('{')
	if r.Bool != nil {
		dst = append(append(dst, sep), `"bool":`...) //wec:alloc amortized growth of the pooled response buffer
		dst = strconv.AppendBool(dst, *r.Bool)
		sep = ','
	}
	if r.Label != nil {
		dst = append(append(dst, sep), `"label":`...) //wec:alloc amortized growth of the pooled response buffer
		dst = strconv.AppendInt(dst, int64(*r.Label), 10)
		sep = ','
	}
	if r.Err != "" {
		dst = append(append(dst, sep), `"error":`...) //wec:alloc amortized growth of the pooled response buffer
		dst = appendJSONString(dst, r.Err)
		sep = ','
	}
	if r.Epoch != 0 {
		dst = append(append(dst, sep), `"epoch":`...) //wec:alloc amortized growth of the pooled response buffer
		dst = strconv.AppendInt(dst, r.Epoch, 10)
		sep = ','
	}
	if sep == '{' {
		return append(dst, "{}"...) //wec:alloc amortized growth of the pooled response buffer
	}
	return append(dst, '}') //wec:alloc amortized growth of the pooled response buffer
}

// jsonHTMLSafe marks the ASCII bytes encoding/json writes verbatim with
// HTML escaping on (the Encoder default): printable ASCII other than '"',
// '\\', '<', '>' and '&'.
var jsonHTMLSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !bytes.ContainsRune([]byte("\"\\<>&"), rune(c))
	}
	return t
}()

// jsonShortEscape holds the second byte of the two-byte escapes
// encoding/json uses; every other unsafe ASCII byte becomes \u00XX.
var jsonShortEscape = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json's
// HTML-escaping encoder writes it: <, > and & as \u003c, \u003e and \u0026,
// other control bytes escaped, U+2028 and U+2029 escaped, and each invalid
// UTF-8 byte as \ufffd.
//
//wec:noalloc
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"') //wec:alloc amortized growth of the pooled response buffer
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonHTMLSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...) //wec:alloc amortized growth of the pooled response buffer
			if e := jsonShortEscape[b]; e != 0 {
				dst = append(dst, '\\', e) //wec:alloc amortized growth of the pooled response buffer
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF]) //wec:alloc amortized growth of the pooled response buffer
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...) //wec:alloc amortized growth of the pooled response buffer
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF]) //wec:alloc amortized growth of the pooled response buffer
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"') //wec:alloc amortized growth of the pooled response buffer
}
