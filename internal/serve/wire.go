package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"autowrap/internal/extract"
)

// This file is the hot-path wire codec for POST /v1/extract: a pooled
// request scratch, a specialized JSON decoder that unescapes string values
// in place inside the body buffer, and a response encoder that appends
// directly into a reused buffer. The wire format is exactly the
// ExtractRequest/ExtractResponse JSON that encoding/json produced before —
// the encoder reproduces encoding/json's escaping (including its HTML-safe
// </>/& and the Encoder's trailing newline) byte for byte —
// but the steady-state request path allocates only the strings that outlive
// the request: the site name and the page IDs. Page HTML is served from
// where it landed in the body buffer.

// pageIn is one decoded page before it becomes an extract.Page. id is a
// real string; html is a view of the scratch's body (see extractScratch).
type pageIn struct{ id, html string }

// page is the dispatcher's input for the i-th page of a request, named
// "page-<i>" when the request gave it no ID.
func (p pageIn) page(i int) extract.Page {
	if p.id == "" {
		p.id = defaultPageID(i)
	}
	return extract.Page{ID: p.id, HTML: p.html}
}

// extractScratch is the per-request workspace of handleExtract, recycled
// through a sync.Pool. Every request gets exclusive ownership from
// acquireScratch to releaseScratch. A decoded page's HTML is a view of
// body, valid until release: finishExtract encodes every result that
// aliases it (Texts) into out before the handler releases the scratch, and
// the one holder that outlives the request, the dispatcher's recent-page
// ring, copies what it keeps. The site and page IDs are real copies — the
// site becomes a map key, and both are echoed in results.
type extractScratch struct {
	body []byte // raw request body; string values are unescaped in place
	out  []byte // response buffer

	site      string
	timeoutMS int
	single    pageIn
	hasSingle bool
	pages     []pageIn
	in        []extract.Page // dispatcher input, reusing the slice only
}

// maxPooledBuf bounds the buffer capacity a pooled scratch may retain: a
// single 32 MiB batch request must not pin its buffer in the pool forever.
const maxPooledBuf = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new(extractScratch) }}

func acquireScratch() *extractScratch { return scratchPool.Get().(*extractScratch) }

// releaseScratch resets the workspace and returns it to the pool, dropping
// oversized buffers and every string reference up to the slices' capacity:
// a pooled scratch pins no request's IDs, and the next request's decode
// finds every page slot zero (see pageArray).
func releaseScratch(sc *extractScratch) {
	if cap(sc.body) > maxPooledBuf {
		sc.body = nil
	}
	if cap(sc.out) > maxPooledBuf {
		sc.out = nil
	}
	sc.body, sc.out = sc.body[:0], sc.out[:0]
	sc.site, sc.timeoutMS = "", 0
	sc.single, sc.hasSingle = pageIn{}, false
	clear(sc.pages[:cap(sc.pages)])
	sc.pages = sc.pages[:0]
	clear(sc.in[:cap(sc.in)])
	sc.in = sc.in[:0]
	scratchPool.Put(sc)
}

// readBodyInto reads the request body into the scratch buffer, enforcing
// the byte cap max. The error is already on the wire when ok is false.
func readBodyInto(w http.ResponseWriter, r *http.Request, sc *extractScratch, max int64) bool {
	if r.ContentLength > max {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", max)
		return false
	}
	if cl := r.ContentLength; cl >= 0 {
		if int64(cap(sc.body)) < cl {
			sc.body = make([]byte, cl)
		} else {
			sc.body = sc.body[:cl]
		}
		if _, err := io.ReadFull(r.Body, sc.body); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return false
		}
		return true
	}
	// Unknown length (chunked): grow the buffer until EOF or the cap.
	sc.body = sc.body[:0]
	for {
		if len(sc.body) == cap(sc.body) {
			sc.body = append(sc.body, 0)[:len(sc.body)]
		}
		n, err := r.Body.Read(sc.body[len(sc.body):cap(sc.body)])
		sc.body = sc.body[:len(sc.body)+n]
		if int64(len(sc.body)) > max {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", max)
			return false
		}
		if err == io.EOF {
			return true
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return false
		}
	}
}

// --- request decoder ---

var errTrailing = errors.New("trailing data after JSON body")

// decodeExtractRequest parses an ExtractRequest from the scratch's body
// buffer into the scratch fields. String values are unescaped in place (a
// JSON escape sequence never expands); the site and page IDs are then
// copied out as real strings — the only allocations of the decode — and
// page HTML stays where it is, as a view (see extractScratch). It accepts
// and rejects the bodies json.Decoder.Decode did, with the same field
// values: unknown fields skipped, keys case-folded, null a no-op, and a
// repeated key decoded over what the earlier one left.
func decodeExtractRequest(sc *extractScratch) error {
	d := jsonCursor{b: sc.body}
	return d.body(d.end, d.str, func(key []byte) error {
		switch {
		case keyIs(key, "site"):
			return d.strField(&sc.site)
		case keyIs(key, "timeout_ms"):
			return d.intField(&sc.timeoutMS)
		case keyIs(key, "page"):
			// encoding/json: null sets the pointer to nil, and an object
			// decodes into the page the pointer already holds, if any.
			if d.tryNull() {
				sc.single, sc.hasSingle = pageIn{}, false
				return nil
			}
			sc.hasSingle = true
			return d.page(&sc.single)
		case keyIs(key, "pages"):
			var err error
			sc.pages, err = d.pageArray(sc.pages)
			return err
		}
		return d.skip(0)
	})
}

// decodeMaintenanceRequest parses the body of POST /v1/repair or
// /v1/learn into req with the cursor /v1/extract uses: page bodies are
// unescaped in place inside body and stay there, as views, so the body
// belongs to the job from then on (see handleMaintenance). It accepts and rejects
// the bodies json.Decoder.Decode did, with the same field values — unknown
// keys skipped, keys case-folded, null a no-op (a nil slice for pages), the
// last of a duplicated key winning — so a caller cannot tell the decoders
// apart except by the wording of a 400 (and by unknown values nested within
// three levels of encoding/json's limit, see maxSkipDepth). corpus_dir is a
// field of a learn request only; a repair skips it like any unknown key.
func decodeMaintenanceRequest(body []byte, req *LearnRequest, learn bool) error {
	d := jsonCursor{b: body}
	return d.body(d.endOfValue, d.str, func(key []byte) error {
		switch {
		case keyIs(key, "site"):
			return d.strField(&req.Site)
		case keyIs(key, "corpus_dir") && learn:
			return d.strField(&req.CorpusDir)
		case keyIs(key, "timeout_ms"):
			return d.intField(&req.TimeoutMS)
		case keyIs(key, "pages"):
			var err error
			req.Pages, err = d.views(req.Pages)
			return err
		}
		return d.skip(0)
	})
}

// body decodes a whole request body: the object, through member (see
// object), then end's check that nothing follows it. A top-level null is a
// no-op decode, as encoding/json treats it, so a decoder errors on exactly
// the bodies encoding/json did.
func (d *jsonCursor) body(end func() error, key func() ([]byte, error), member func(key []byte) error) error {
	d.ws()
	if !d.tryNull() {
		if err := d.object(key, member); err != nil {
			return err
		}
	}
	return end()
}

// object walks one JSON object: key reads each key — str for a decoder,
// peekStr for the routing peek, which must change no byte — and member
// consumes that key's value, the cursor at its first byte.
func (d *jsonCursor) object(key func() ([]byte, error), member func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	d.ws()
	if d.tryByte('}') {
		return nil
	}
	for {
		k, err := key()
		if err != nil {
			return err
		}
		d.ws()
		if err := d.expect(':'); err != nil {
			return err
		}
		d.ws()
		if err := member(k); err != nil {
			return err
		}
		d.ws()
		if d.tryByte('}') {
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
		d.ws()
	}
}

// strField decodes a string value into *dst; null leaves it untouched.
func (d *jsonCursor) strField(dst *string) error {
	if d.tryNull() {
		return nil
	}
	v, err := d.str()
	if err == nil {
		*dst = toWireString(v)
	}
	return err
}

// intField decodes an integer value into *dst; null leaves it untouched.
func (d *jsonCursor) intField(dst *int) error {
	if d.tryNull() {
		return nil
	}
	n, err := d.integer()
	if err == nil {
		*dst = n
	}
	return err
}

// views decodes an array of strings over old, the field's value so far
// (see array), each string a view of the body (see view); a null element
// leaves the element as it was. null for the whole array is a nil slice,
// and [] a fresh empty one, as encoding/json leaves them.
func (d *jsonCursor) views(old []string) ([]string, error) {
	if d.tryNull() {
		return nil, nil
	}
	out, err := array(d, old, func(dst *string) error {
		if d.tryNull() {
			return nil
		}
		v, err := d.str()
		if err == nil {
			*dst = d.view(v)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		out = []string{}
	}
	return out, nil
}

// pageArray decodes a pages array over old, the field's value so far (see
// array), with a null element keeping its slot. Where encoding/json leaves
// a nil or fresh empty slice — null, or [] — pageArray zeroes old's storage
// instead, which the next array over it reads the same way and which keeps
// the pooled slice.
func (d *jsonCursor) pageArray(old []pageIn) ([]pageIn, error) {
	if !d.tryNull() {
		out, err := array(d, old, func(pg *pageIn) error {
			if d.tryNull() {
				return nil
			}
			return d.page(pg)
		})
		if err != nil || len(out) > 0 {
			return out, err
		}
	}
	clear(old[:cap(old)])
	return old[:0], nil
}

// array decodes a JSON array over old the way encoding/json decodes into a
// slice it has already filled (a duplicated key): elem decodes each element
// into its slot — even a slot beyond old's length that an earlier, longer
// array left behind — and the slice is cut to the new length. [] yields
// old[:0].
func array[T any](d *jsonCursor, old []T, elem func(*T) error) ([]T, error) {
	if err := d.expect('['); err != nil {
		return old, err
	}
	d.ws()
	out := old[:0]
	if d.tryByte(']') {
		return out, nil
	}
	for {
		if len(out) == cap(out) {
			var zero T
			out = append(out, zero)
		} else {
			out = out[:len(out)+1]
		}
		if err := elem(&out[len(out)-1]); err != nil {
			return out, err
		}
		d.ws()
		if d.tryByte(']') {
			return out, nil
		}
		if err := d.expect(','); err != nil {
			return out, err
		}
		d.ws()
	}
}

// endOfValue is the check json.Decoder.More made after a maintenance body:
// whitespace, then the end of input — or a stray ']' or '}', which More
// does not count as more data. Everything else is trailing data.
func (d *jsonCursor) endOfValue() error {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] != ']' && d.b[d.i] != '}' {
		return errTrailing
	}
	return nil
}

// jsonCursor is a minimal JSON scanner over the pooled body buffer.
type jsonCursor struct {
	b []byte
	i int
	// ascii reports that the string str scanned last held no raw byte ≥
	// 0x80, and so is valid UTF-8 without a second scan.
	ascii bool
}

func (d *jsonCursor) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *jsonCursor) expect(c byte) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of body, want %q", c)
	}
	if d.b[d.i] != c {
		return fmt.Errorf("unexpected character %q at offset %d, want %q", d.b[d.i], d.i, c)
	}
	d.i++
	return nil
}

func (d *jsonCursor) tryByte(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *jsonCursor) tryNull() bool {
	if d.i+4 <= len(d.b) && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

// end verifies nothing but whitespace follows the decoded value.
func (d *jsonCursor) end() error {
	d.ws()
	if d.i != len(d.b) {
		return errTrailing
	}
	return nil
}

// page decodes one {"id": ..., "html": ...} object into pg, over what pg
// already holds: a field the object leaves out, or sets to null, keeps its
// value, as in encoding/json.
func (d *jsonCursor) page(pg *pageIn) error {
	return d.object(d.str, func(key []byte) error {
		switch {
		case keyIs(key, "id"):
			return d.strField(&pg.id)
		case keyIs(key, "html"):
			if d.tryNull() {
				return nil
			}
			v, err := d.str()
			if err == nil {
				pg.html = d.view(v)
			}
			return err
		}
		return d.skip(0)
	})
}

// view is what decoded page HTML becomes: the string the bytes v already
// are, valid as long as the body buffer is (see extractScratch). Only a
// string holding invalid UTF-8 is copied, to coerce it as toWireString does.
// v must be the string str scanned last.
func (d *jsonCursor) view(v []byte) string {
	if !d.ascii && !utf8.Valid(v) {
		return toWireString(v)
	}
	return unsafe.String(unsafe.SliceData(v), len(v))
}

// str scans a JSON string and returns its decoded bytes — a view into the
// body buffer, valid until the buffer is recycled. Escape-free strings are
// returned as-is; strings with escapes are unescaped in place (the decoded
// form is never longer than the encoded one). It sets d.ascii.
func (d *jsonCursor) str() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.i
	var high byte
	for d.i < len(d.b) {
		c := d.b[d.i]
		if strStop[c] {
			if c == '"' {
				v := d.b[start:d.i]
				d.i++
				d.ascii = high < utf8.RuneSelf
				return v, nil
			}
			if c == '\\' {
				return d.strSlow(start, high)
			}
			return nil, fmt.Errorf("invalid control character %q in string at offset %d", c, d.i)
		}
		high |= c
		d.i++
	}
	return nil, errors.New("unterminated string")
}

// strSlow finishes scanning a string that contains escapes, rewriting the
// decoded bytes over the encoded ones from the first backslash on; high is
// the OR of the bytes before it. A plain byte is a table test and a store.
// \u00XX below 0x80 — every escape an HTML-escaping encoder writes for <, >,
// & and the controls — and the short escapes decode inline; only other \u
// escapes reach u4 and the surrogate rules.
func (d *jsonCursor) strSlow(start int, high byte) ([]byte, error) {
	b := d.b
	i, w := d.i, d.i // read and write cursors; i is at the first backslash
	for i < len(b) {
		c := b[i]
		if !strStop[c] {
			b[w] = c
			w++
			i++
			high |= c
			continue
		}
		switch {
		case c == '"':
			d.i = i + 1
			// Bytes ≥ 0x80 that an escape wrote are whole UTF-8 encodings;
			// only raw ones can leave the string invalid.
			d.ascii = high < utf8.RuneSelf
			return b[start:w], nil
		case c < 0x20:
			return nil, fmt.Errorf("invalid control character %q in string at offset %d", c, i)
		}
		if i+1 >= len(b) {
			return nil, errors.New("unterminated escape")
		}
		e := b[i+1]
		if e == 'u' && i+5 < len(b) && b[i+2] == '0' && b[i+3] == '0' {
			if hi, lo := hexVal[b[i+4]], hexVal[b[i+5]]; uint8(hi) < 8 && lo >= 0 {
				b[w] = byte(hi)<<4 | byte(lo)
				w++
				i += 6
				continue
			}
		}
		if s := shortEscape[e]; s != 0 {
			b[w] = s
			w++
			i += 2
			continue
		}
		if e != 'u' {
			return nil, fmt.Errorf("invalid escape character %q in string", e)
		}
		d.i = i + 2
		r, err := d.u4()
		if err != nil {
			return nil, err
		}
		if utf16.IsSurrogate(r) {
			r2 := rune(utf8.RuneError)
			if d.i+1 < len(b) && b[d.i] == '\\' && b[d.i+1] == 'u' {
				save := d.i
				d.i += 2
				lo, err := d.u4()
				if err != nil {
					return nil, err
				}
				if dec := utf16.DecodeRune(r, lo); dec != utf8.RuneError {
					r2 = dec
				} else {
					d.i = save // lone surrogate: re-scan the second escape
				}
			}
			r = r2
		}
		w += utf8.EncodeRune(b[w:w+utf8.UTFMax], r)
		i = d.i
	}
	return nil, errors.New("unterminated string")
}

// strStop marks the bytes that end a run of plain string bytes: the quote,
// the backslash and the control characters.
var strStop = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	t['"'], t['\\'] = true, true
	return
}()

// shortEscape maps the byte after a backslash to what the two-byte escape
// decodes to, and every other byte to 0 (no short escape decodes to NUL).
var shortEscape = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// u4 decodes the four hex digits of a \uXXXX escape (cursor past the 'u').
func (d *jsonCursor) u4() (rune, error) {
	if d.i+4 > len(d.b) {
		return 0, errors.New("truncated \\u escape")
	}
	h := d.b[d.i : d.i+4]
	r := rune(hexVal[h[0]])<<12 | rune(hexVal[h[1]])<<8 | rune(hexVal[h[2]])<<4 | rune(hexVal[h[3]])
	if r < 0 {
		return 0, fmt.Errorf("invalid \\u escape %q", h)
	}
	d.i += 4
	return r, nil
}

// hexVal maps a hex digit to its value and every other byte to -1, which
// survives the shifts and ors of u4 as a negative rune.
var hexVal = func() (t [256]int8) {
	for i := range t {
		t[i] = -1
	}
	for i := 0; i < 10; i++ {
		t['0'+i] = int8(i)
	}
	for i := 0; i < 6; i++ {
		t['a'+i], t['A'+i] = int8(10+i), int8(10+i)
	}
	return
}()

// integer scans a plain integer (what a timeout_ms field may hold).
func (d *jsonCursor) integer() (int, error) {
	start := d.i
	d.tryByte('-')
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	if d.i == start || (d.b[start] == '-' && d.i == start+1) {
		return 0, fmt.Errorf("invalid number at offset %d", start)
	}
	// encoding/json's scanner rejects leading zeros ("00", "-012").
	digits := start
	if d.b[start] == '-' {
		digits++
	}
	if d.b[digits] == '0' && d.i > digits+1 {
		return 0, fmt.Errorf("invalid number at offset %d", start)
	}
	if d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		return 0, fmt.Errorf("cannot decode fractional number into an integer field")
	}
	n, err := strconv.Atoi(string(d.b[start:d.i]))
	if err != nil {
		return 0, err
	}
	return n, nil
}

// maxSkipDepth is how deep a skipped value may nest: encoding/json's limit
// of 10,000 open objects and arrays, less the three a request's own
// structure can put around the value. Without a limit skip recurses as deep
// as a hostile body nests.
const maxSkipDepth = 10000 - 3

// skip consumes one arbitrary JSON value (unknown fields). depth is the
// number of skipped objects and arrays open around it: 0 from a decoder.
func (d *jsonCursor) skip(depth int) error {
	d.ws()
	if d.i >= len(d.b) {
		return errors.New("unexpected end of body")
	}
	if c := d.b[d.i]; (c == '{' || c == '[') && depth >= maxSkipDepth {
		return errors.New("exceeded max depth")
	}
	switch c := d.b[d.i]; {
	case c == '"':
		_, err := d.str()
		return err
	case c == '{':
		return d.object(d.str, func([]byte) error { return d.skip(depth + 1) })
	case c == '[':
		// Zero-size elements: the walk allocates nothing.
		_, err := array(d, []struct{}(nil), func(*struct{}) error { return d.skip(depth + 1) })
		return err
	case c == 't':
		return d.lit("true")
	case c == 'f':
		return d.lit("false")
	case c == 'n':
		return d.lit("null")
	case c == '-' || (c >= '0' && c <= '9'):
		return d.number()
	default:
		return fmt.Errorf("unexpected character %q at offset %d", c, d.i)
	}
}

// number consumes one JSON number, enforcing the full RFC 8259 grammar
// the way encoding/json's scanner does: no leading zeros, no bare '.',
// no dangling exponent sign.
func (d *jsonCursor) number() error {
	start := d.i
	d.tryByte('-')
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case d.i < len(d.b) && d.b[d.i] >= '1' && d.b[d.i] <= '9':
		for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
			d.i++
		}
	default:
		return fmt.Errorf("invalid number at offset %d", start)
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if d.i >= len(d.b) || d.b[d.i] < '0' || d.b[d.i] > '9' {
			return fmt.Errorf("invalid number at offset %d", start)
		}
		for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
			d.i++
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.i >= len(d.b) || d.b[d.i] < '0' || d.b[d.i] > '9' {
			return fmt.Errorf("invalid number at offset %d", start)
		}
		for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
			d.i++
		}
	}
	return nil
}

func (d *jsonCursor) lit(s string) error {
	if d.i+len(s) > len(d.b) || string(d.b[d.i:d.i+len(s)]) != s {
		return fmt.Errorf("invalid literal at offset %d", d.i)
	}
	d.i += len(s)
	return nil
}

// keyIs matches an object key against a lower-case ASCII field name with
// the tolerance encoding/json's field matching has: letters fold by case,
// and the two non-ASCII runes that fold into ASCII — ſ (U+017F) to s and the
// Kelvin sign (U+212A) to k — count as those letters.
func keyIs(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); i, j = i+1, j+1 {
		c := key[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
		case c == 0xC5 && i+1 < len(key) && key[i+1] == 0xBF:
			c, i = 's', i+1
		case c == 0xE2 && i+2 < len(key) && key[i+1] == 0x84 && key[i+2] == 0xAA:
			c, i = 'k', i+2
		}
		if j >= len(name) || c != name[j] {
			return false
		}
	}
	return j == len(name)
}

// toWireString copies a decoded value out of the body buffer into a real
// string — the allocation that lets the site name, page IDs and job
// payloads safely outlive the pooled buffer. Invalid UTF-8 is coerced to
// U+FFFD exactly as encoding/json's decoder did, so downstream output stays
// byte-identical.
func toWireString(v []byte) string {
	if utf8.Valid(v) {
		return string(v)
	}
	out := make([]byte, 0, len(v)+8)
	for len(v) > 0 {
		r, size := utf8.DecodeRune(v)
		if r == utf8.RuneError && size == 1 {
			out = append(out, "�"...)
		} else {
			out = append(out, v[:size]...)
		}
		v = v[size:]
	}
	return string(out)
}

// --- routing peek ---

// peekRoute reads what a forwarding front needs of an extract, learn or
// repair body — the top-level site and timeout_ms, the same two keys in all
// three — and changes no byte of it, so the client's own bytes go on to the
// owning shard. The front routes, the shard validates: for every body
// decodeExtractRequest or decodeMaintenanceRequest accepts, peekRoute
// returns the site and timeout_ms they decode (keys case-folded and
// unescaped, the last of a duplicated key winning, null a no-op, invalid
// UTF-8 coerced to U+FFFD, which can change the ring owner); every other
// value is stepped over by its quotes and brackets alone. A body it passes
// may therefore be one the shard refuses — with the 400 this front would have
// worded, the decoders being the same code — but one it refuses no decoder
// accepts.
func peekRoute(body []byte) (site string, timeoutMS int, err error) {
	d := jsonCursor{b: body}
	// The maintenance decoders' end check, the laxer of the two: a stray
	// closer after an extract body is the shard's 400.
	err = d.body(d.endOfValue, d.peekStr, func(key []byte) error {
		switch {
		case keyIs(key, "site"):
			if d.tryNull() {
				return nil
			}
			v, err := d.peekStr()
			if err == nil {
				site = toWireString(v)
			}
			return err
		case keyIs(key, "timeout_ms"):
			return d.intField(&timeoutMS)
		}
		return d.stepOver()
	})
	if err != nil {
		return "", 0, err
	}
	return site, timeoutMS, nil
}

// peekStr is str for a body that must stay as it is: a string without
// escapes comes back as a view of the body, one with escapes is unescaped in
// a copy (keys and site names are short, and escapes in them rare).
func (d *jsonCursor) peekStr() ([]byte, error) {
	start := d.i
	if err := d.stepOverStr(); err != nil {
		return nil, err
	}
	if raw := d.b[start:d.i]; bytes.IndexByte(raw, '\\') >= 0 {
		c := jsonCursor{b: bytes.Clone(raw)}
		return c.str()
	}
	return d.b[start+1 : d.i-1], nil
}

// stepOverStr steps over a string by its quotes alone: it ends at the first
// '"' that an odd run of backslashes does not escape. What lies between is
// not validated.
func (d *jsonCursor) stepOverStr() error {
	if err := d.expect('"'); err != nil {
		return err
	}
	for {
		j := bytes.IndexByte(d.b[d.i:], '"')
		if j < 0 {
			return errors.New("unterminated string")
		}
		d.i += j + 1
		k := d.i - 2 // the byte before the quote; the opening quote stops the run
		for d.b[k] == '\\' {
			k--
		}
		if (d.i-k)%2 == 0 {
			return nil
		}
	}
}

// stepOver steps over the value of a key the peek does not read: a string by
// its quotes, an object or array by counting brackets outside strings, a
// number or literal up to the next delimiter. Page HTML is nearly all of a
// body and goes by at IndexByte speed; none of it is validated here.
func (d *jsonCursor) stepOver() error {
	depth := 0
	for start := d.i; d.i < len(d.b); {
		switch d.b[d.i] {
		case '"':
			if err := d.stepOverStr(); err != nil {
				return err
			}
		case '{', '[':
			depth++
			d.i++
			continue
		case '}', ']':
			if depth == 0 {
				return d.scalarEnd(start)
			}
			depth--
			d.i++
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return d.scalarEnd(start)
			}
			d.i++
			continue
		default:
			d.i++
			continue
		}
		if depth == 0 {
			return nil
		}
	}
	return errors.New("unexpected end of body")
}

// scalarEnd ends stepOver at the delimiter after a number or literal; a
// delimiter where the value should start is an error.
func (d *jsonCursor) scalarEnd(start int) error {
	if d.i == start {
		return fmt.Errorf("unexpected character %q at offset %d", d.b[d.i], d.i)
	}
	return nil
}

// --- response encoder ---

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, reproducing encoding/json's
// escaping byte for byte: the HTML-unsafe <, > and & go out as <-style
// escapes, control characters as their short or \u00xx forms, invalid UTF-8
// as the escaped form of U+FFFD, and U+2028/U+2029 escaped for JS embedding.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// <, > and & for HTML safety, plus remaining control chars.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			// encoding/json writes invalid bytes as the escaped form of U+FFFD.
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe marks the ASCII bytes that need no escaping in a JSON string
// under encoding/json's HTML-escaping rules.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return
}()

// appendExtractResponse renders an ExtractResponse into dst, byte-identical
// to writeJSON's encoding/json output for the same value (field order,
// omitempty fields, records never null, trailing newline).
func appendExtractResponse(dst []byte, ext *Extraction, reqErr error) []byte {
	dst = append(dst, `{"site":`...)
	dst = appendJSONString(dst, ext.Site)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(ext.Version), 10)
	dst = append(dst, `,"results":[`...)
	for i := range ext.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		res := &ext.Results[i]
		dst = append(dst, '{')
		if res.ID != "" {
			dst = append(dst, `"id":`...)
			dst = appendJSONString(dst, res.ID)
			dst = append(dst, ',')
		}
		dst = append(dst, `"records":[`...)
		for j, t := range res.Texts {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, t)
		}
		dst = append(dst, ']')
		if res.Err != nil {
			dst = append(dst, `,"error":`...)
			dst = appendJSONString(dst, res.Err.Error())
		}
		dst = append(dst, `,"elapsed_us":`...)
		dst = strconv.AppendInt(dst, res.Elapsed.Microseconds(), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	if reqErr != nil {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, reqErr.Error())
	}
	return append(dst, '}', '\n')
}

// writeRawJSON writes a pre-encoded JSON body with an explicit
// Content-Length, so hot-path responses go out in one write without
// chunked framing.
func writeRawJSON(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// smallPageIDs are the interned default IDs for unnamed pages — the
// single-page fast path never allocates its "page-0".
var smallPageIDs = [...]string{
	"page-0", "page-1", "page-2", "page-3", "page-4", "page-5", "page-6", "page-7",
}

func defaultPageID(i int) string {
	if i < len(smallPageIDs) {
		return smallPageIDs[i]
	}
	return "page-" + strconv.Itoa(i)
}
