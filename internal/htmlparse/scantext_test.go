package htmlparse

import (
	"strings"
	"testing"
)

// isCollapsed is the reference for the tokenizer's collapsed verdict:
// whether collapseAppend would reproduce s — not empty, no whitespace at
// either end, and none inside but single spaces.
func isCollapsed(s string) bool {
	if s == "" || s[len(s)-1] == ' ' {
		return false
	}
	space := true // so that a leading space fails like a doubled one
	for i := 0; i < len(s); i++ {
		if nameClass[s[i]]&spaceByte == 0 {
			space = false
		} else if space || s[i] != ' ' {
			return false
		} else {
			space = true
		}
	}
	return true
}

// FuzzScanText holds classifyText, the one scan the parser makes of a
// wanted text run, to the two it made before: a search for '&' and
// isCollapsed — on every run the tokenizer cuts, raw script and style
// content included.
func FuzzScanText(f *testing.F) {
	for _, src := range []string{
		"plain", "two words", " lead", "trail ", "dou  ble", "tab\there", "nl\nhere", "cr\rff\f",
		"a &amp; b", "&", "&&x", "<", "a < b", "x<", "<<a", "< lead", "<p>one</p> two <b>three</b>",
		"<p> x </p>\n\t<p>y</p>", "a<!-- c -->b", "<a href='x'>l&lt;k</a>", "<script> a  &amp; </script>x &y",
		"<style>p{}</style>", "<title>t</title> t ", "<p>é ☃</p> ", "\x00\x80\xff",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tz := tokenizer{src: src}
		for tz.next() {
			if tz.typ != tokText {
				continue
			}
			amp, collapsed := classifyText(tz.data)
			wantAmp, wantCollapsed := strings.IndexByte(tz.data, '&') >= 0, isCollapsed(tz.data)
			if amp != wantAmp || collapsed != wantCollapsed {
				t.Fatalf("run %q: amp %v collapsed %v, want %v %v", tz.data, amp, collapsed, wantAmp, wantCollapsed)
			}
		}
	})
}
