// Package htmlparse is a tolerant HTML parser: the reproduction's substitute
// for the jtidy utility the paper uses to "clean up and parse HTML pages"
// (Sec. 7). It accepts the messy markup that script-generated sites emit —
// unclosed tags, stray close tags, unquoted attributes, raw script/style —
// and always produces a well-formed dom.Node tree.
package htmlparse

import (
	"strings"
	"unicode/utf8"

	"autowrap/internal/dom"
)

type tokenType uint8

const (
	tokText tokenType = iota
	tokStartTag
	tokEndTag
	tokSelfClosing
	tokComment
	tokDoctype
)

// tokenizer scans HTML source into a token stream. It never fails: malformed
// constructs degrade to text. next writes the token into the tokenizer's own
// fields rather than returning it: a token by value is 48 bytes copied out
// of tag, out of next and into the parse loop, which was about half of what
// tokenizing cost.
type tokenizer struct {
	src string
	pos int
	// rawTag, when set, makes the tokenizer consume everything up to the
	// matching close tag as a single text token (script/style contents).
	rawTag string

	// The current token, valid until the next call to next.
	typ tokenType
	// data is the tag name (lowercased) or, for tokText, the source bytes
	// of the run with their character references still in them: the
	// parser decodes only text somebody wants.
	data string
	// raw marks a tokText that is script/style content, never decoded.
	raw bool
	// attrs holds a start tag's attributes in reused storage, at most
	// maxAttrs of them and the first of each name; the parser hands it to
	// the handler, which copies what it keeps.
	attrs []dom.Attr
	// keys is the set of attrs' names while a tag of more than keepScan
	// attributes is scanned, empty otherwise.
	keys map[string]struct{}
}

// maxAttrs is how many attributes a start tag keeps, as maxDepth is how
// many elements the parser holds open. The attributes past it are scanned —
// a '>' inside a quoted value still does not end the tag — and dropped, so
// a tag of millions of attributes costs a scan, not gigabytes of them.
const maxAttrs = 512

// keepScan is how many kept attributes keep looks through one by one; a tag
// with more has their keys put in a set.
const keepScan = 8

// keep reports whether the start tag being scanned keeps its attribute
// named key: the first of repeated attributes wins, as in HTML, so the
// tree, the token stream, the serialization and the learner's features all
// see one value for a name; and at most maxAttrs are kept. The check costs
// a short scan on an ordinary tag and a set lookup on a tag of hundreds of
// attributes, so a tag of millions of copies of one name costs a lookup a
// copy.
func (t *tokenizer) keep(key string) bool {
	n := len(t.attrs)
	switch {
	case n >= maxAttrs:
		return false
	case n < keepScan:
		for i := range t.attrs {
			if t.attrs[i].Key == key {
				return false
			}
		}
		return true
	}
	if len(t.keys) == 0 {
		if t.keys == nil {
			t.keys = make(map[string]struct{}, maxAttrs)
		}
		for _, a := range t.attrs {
			t.keys[a.Key] = struct{}{}
		}
	}
	if _, dup := t.keys[key]; dup {
		return false
	}
	t.keys[key] = struct{}{}
	return true
}

// next scans the next token into t, or returns false at end of input.
func (t *tokenizer) next() bool {
	src, start := t.src, t.pos
	if start >= len(src) {
		return false
	}
	if t.rawTag != "" {
		t.rawText()
		return true
	}
	from := start
	if src[start] == '<' {
		if t.tag() {
			return true
		}
		// A lone '<' that does not open a valid construct is literal text.
		from++
	}
	end := len(src)
	if i := strings.IndexByte(src[from:], '<'); i >= 0 {
		end = from + i
	}
	t.pos = end
	t.typ, t.data, t.raw = tokText, src[start:end], false
	return true
}

// rawText consumes the raw content of a script/style element up to its
// closing tag (case-insensitive), leaving the close tag for the next call.
// The closing tag is the element's own: "</scripts>" is content, or the end
// tag scanned next would bear another name, close nothing, and leave what
// follows to be parsed as markup inside a raw element — which a reparse of
// the serialization would read as text.
func (t *tokenizer) rawText() {
	close := "</script"
	if t.rawTag == "style" {
		close = "</style"
	}
	end := t.pos
	for {
		idx := foldIndex(t.src[end:], close)
		if idx < 0 {
			end = len(t.src)
			break
		}
		end += idx
		if after := end + len(close); after == len(t.src) || nameClass[t.src[after]]&nameByte == 0 {
			break
		}
		end++
	}
	t.typ, t.data, t.raw = tokText, t.src[t.pos:end], true
	t.pos = end
	t.rawTag = ""
}

// foldIndex is an ASCII-case-insensitive strings.Index: the offset of the
// first match of sub (which must be lowercase ASCII and start with '<') in
// s, or -1. Unlike strings.Index(strings.ToLower(s), sub) it allocates
// nothing and reports byte offsets into s itself even when s contains
// multi-byte runes whose lowercase form has a different width.
func foldIndex(s, sub string) int {
	for i := 0; ; i++ {
		k := strings.IndexByte(s[i:], sub[0])
		if k < 0 || i+k+len(sub) > len(s) {
			return -1
		}
		i += k
		j := 1
		for ; j < len(sub); j++ {
			c := s[i+j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != sub[j] {
				break
			}
		}
		if j == len(sub) {
			return i
		}
	}
}

// tag scans the construct starting at '<' into t. It returns false, leaving
// t untouched, when the bytes do not form a tag, comment or doctype.
func (t *tokenizer) tag() bool {
	src, p := t.src, t.pos
	if p+1 >= len(src) {
		return false
	}
	switch c := src[p+1]; {
	case c == '!' && strings.HasPrefix(src[p:], "<!--"):
		t.typ, t.pos = tokComment, len(src)
		if end := strings.Index(src[p+4:], "-->"); end >= 0 {
			t.pos = p + 4 + end + 3
		}
	case c == '!' || c == '?':
		t.typ, t.pos = tokDoctype, len(src)
		if end := strings.IndexByte(src[p:], '>'); end >= 0 {
			t.pos = p + end + 1
		}
	case c == '/':
		q := p + 2
		name := scanName(src, &q)
		if name == "" {
			return false
		}
		// Skip to '>', which nearly always follows the name.
		if q < len(src) && src[q] == '>' {
			q++
		} else if end := strings.IndexByte(src[q:], '>'); end >= 0 {
			q += end + 1
		} else {
			q = len(src)
		}
		t.typ, t.data, t.pos = tokEndTag, name, q
	default:
		q := p + 1
		name := scanName(src, &q)
		if name == "" {
			return false
		}
		t.typ, t.data = tokStartTag, name
		t.attrs = t.attrs[:0]
		for {
			skipSpace(src, &q)
			if q >= len(src) {
				break
			}
			if src[q] == '>' {
				q++
				break
			}
			if src[q] == '/' && q+1 < len(src) && src[q+1] == '>' {
				t.typ = tokSelfClosing
				q += 2
				break
			}
			key := scanName(src, &q)
			if key == "" {
				q++ // skip junk byte
				continue
			}
			val := ""
			skipSpace(src, &q)
			if q < len(src) && src[q] == '=' {
				q++
				skipSpace(src, &q)
				val = scanAttrValue(src, &q)
			}
			if t.keep(key) {
				t.attrs = append(t.attrs, dom.Attr{Key: key, Val: decodeEntities(val)})
			}
		}
		if len(t.keys) > 0 {
			clear(t.keys) // they alias the page
		}
		t.pos = q
		if t.typ == tokStartTag && dom.IsRaw(name) {
			t.rawTag = name
		}
	}
	return true
}

// Byte classes of nameClass.
const (
	nameByte  = 1 << iota // may appear in a tag or attribute name
	upperByte             // A-Z: the name must be folded
	spaceByte             // HTML whitespace
	ampByte               // '&': the text run holds a character reference
)

// nameClass classifies every byte once, so scanning a name or a run of
// whitespace, or classifying a text run, is one table load a byte.
var nameClass = func() (tab [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		tab[c] = nameByte
		tab[c-'a'+'A'] = nameByte | upperByte
	}
	for c := '0'; c <= '9'; c++ {
		tab[c] = nameByte
	}
	for _, c := range "-_:." {
		tab[c] = nameByte
	}
	for _, c := range " \t\n\r\f" {
		tab[c] = spaceByte
	}
	tab['&'] = ampByte
	return tab
}()

// scanName scans a tag or attribute name at *q and returns it lowercased —
// the source bytes themselves when nothing in it folds.
func scanName(src string, q *int) string {
	start, i := *q, *q
	var seen uint8
	for i < len(src) && nameClass[src[i]]&nameByte != 0 {
		seen |= nameClass[src[i]]
		i++
	}
	*q = i
	if seen&upperByte != 0 {
		return strings.ToLower(src[start:i])
	}
	return src[start:i]
}

func skipSpace(src string, q *int) {
	i := *q
	for i < len(src) && nameClass[src[i]]&spaceByte != 0 {
		i++
	}
	*q = i
}

// scanAttrValue scans an attribute value at *q and returns its source
// bytes, character references still in them: a value past maxAttrs is
// dropped undecoded.
func scanAttrValue(src string, q *int) string {
	if *q >= len(src) {
		return ""
	}
	switch src[*q] {
	case '"', '\'':
		quote := src[*q]
		start := *q + 1
		end := len(src)
		*q = end
		if i := strings.IndexByte(src[start:], quote); i >= 0 {
			end = start + i
			*q = end + 1
		}
		return src[start:end]
	default:
		start := *q
		for *q < len(src) {
			c := src[*q]
			if nameClass[c]&spaceByte != 0 || c == '>' {
				break
			}
			if c == '/' && *q+1 < len(src) && src[*q+1] == '>' {
				break
			}
			*q++
		}
		return src[start:*q]
	}
}

// namedEntities is the small set of named character references that actually
// occur in script-generated listing pages.
var namedEntities = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": '\u0020', "copy": '©', "reg": '®', "trade": '™',
	"mdash": '—', "ndash": '–', "hellip": '…', "bull": '•',
	"laquo": '«', "raquo": '»', "deg": '°', "middot": '·',
}

// decodeEntities resolves named and numeric character references. Unknown
// references are left verbatim (tolerant behaviour).
func decodeEntities(s string) string {
	if strings.IndexByte(s, '&') < 0 {
		return s
	}
	var buf [128]byte // most values fit, and then the string is the one allocation
	return string(appendDecoded(buf[:0], s))
}

// appendDecoded appends s to dst with its character references resolved,
// copying the bytes between two ampersands whole.
func appendDecoded(dst []byte, s string) []byte {
	for {
		amp := strings.IndexByte(s, '&')
		if amp < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:amp]...)
		s = s[amp:]
		if semi := strings.IndexByte(s[1:], ';'); semi >= 0 && semi <= 10 {
			if r, ok := decodeRef(s[1 : 1+semi]); ok {
				dst = utf8.AppendRune(dst, r)
				s = s[semi+2:]
				continue
			}
		}
		dst = append(dst, '&')
		s = s[1:]
	}
}

func decodeRef(ref string) (rune, bool) {
	if ref == "" {
		return 0, false
	}
	if ref[0] == '#' {
		num := ref[1:]
		base := 10
		if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		v := 0
		if num == "" {
			return 0, false
		}
		for i := 0; i < len(num); i++ {
			d := digitVal(num[i])
			if d < 0 || d >= base {
				return 0, false
			}
			v = v*base + d
			if v > 0x10FFFF {
				return 0, false
			}
		}
		if v == 0 {
			return 0, false
		}
		return rune(v), true
	}
	r, ok := namedEntities[ref]
	return r, ok
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
