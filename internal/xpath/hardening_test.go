package xpath

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseAdversarialInputs feeds Parse a table of malformed rule strings:
// every one must return an error — never panic, never silently succeed.
// Wrapper rules are loaded from a persisted store, so the parser is an
// input-validation boundary, not just a convenience for literals.
func TestParseAdversarialInputs(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"/",
		"//",
		"///",
		"/ /a",
		"a",
		"td/text()",
		"*",
		"[1]",
		"]",
		"/]",
		"/a[",
		"/a[]",
		"/a[1",
		"/a[0]",
		"/a[-1]",
		"/a[1.5]",
		"/a[99999999999999999999999999]",
		"/a[4294967297]", // wraps to 1 if the guard multiplies before checking (32-bit int)
		"/a[1073741825]", // one past the cap
		"/a[@]",
		"/a[@=]",
		"/a[@='v']",
		"/a[@b]",
		"/a[@b=]",
		"/a[@b=v]",
		"/a[@b='v]",
		"/a[@b=\"v]",
		"/a[@b='v'",
		"/a[@b='v\"]",
		"/a[@b='']extra",
		"/a]b",
		"/a/b]",
		"/a//",
		"/a/",
		"//a//",
		"/a/text()/b",
		"/text()/a",
		"//text()[1]",
		"/a/text()()",
		"/a/text()[1]",
		"/日本語",
		"/a[@日='x']",
		"/\x00",
		"/a\x00b",
		"/a[@b='\x00']extra",
		"/<b>",
		"//*[",
		"//*]",
		strings.Repeat("/a[", 10000),
		"/" + strings.Repeat("a/", 50000),
		"/a[@b='" + strings.Repeat("x", 1<<16), // unterminated huge value
	}
	for _, src := range bad {
		name := src
		if len(name) > 40 {
			name = name[:40] + "..."
		}
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", src, r)
				}
			}()
			e, err := Parse(src)
			if err == nil {
				t.Fatalf("Parse(%q) = %v, want error", src, e)
			}
			if !strings.Contains(err.Error(), "xpath:") {
				t.Fatalf("Parse(%q) error lacks package prefix: %v", src, err)
			}
		})
	}
}

// TestParseAdversarialButValid pins inputs that look hostile yet are part
// of the accepted grammar, so hardening does not silently shrink it.
func TestParseAdversarialButValid(t *testing.T) {
	good := []string{
		"//text()",
		"/a//text()",
		"//*/text()",
		"/a",
		"//a",
		"/a/b/c",
		"/a[1]",
		"/a[1][2]",
		"/a[@b='v']",
		"/a[@b=\"v\"]",
		"/a[@b='']",
		"/a[@b=' spaced value ']",
		"/a[@b='\"']",
		"/a[@b='<junk>&amp;']",
		"/a[@b='v'][3][@c='w']",
		"/a[1073741824]", // exactly the cap
		"  //a/text()  ", // surrounding space is trimmed
		"/a-b_c:d[@data-x='1']",
		"/a[@data.x='1']", // every byte the HTML tokenizer takes for a name
		`/a[@b="it's"]`,
		"/a[@b='it''s']", // a literal's own quote, doubled
		"/a[@b='" + "''" + "']",
		`/a[@b="say ""hi"""]`,
		"/a[@onload='init(''a'')'][@b='x]y']",
	}
	for _, src := range good {
		t.Run(src, func(t *testing.T) {
			e, err := Parse(src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
			// Reparsing the rendered form must succeed and round-trip: the
			// store persists rules as strings.
			e2, err := Parse(e.String())
			if err != nil {
				t.Fatalf("reparse of %q (from %q): %v", e.String(), src, err)
			}
			if !reflect.DeepEqual(e2, e) {
				t.Fatalf("Parse(String()) is not the identity: %q -> %q", e.String(), e2.String())
			}
		})
	}
}

// FuzzParse hammers the parser: any input may be rejected but must never
// panic, and accepted inputs must render to a string that reparses to the
// same expression.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"//div[@class='dealerlinks']/table[1]/tr/td[2]/text()",
		"/a[@b='v']", "//text()", "/a[12]", "///", "/a[@b='v", "", "/*",
		`/a[@b="it's"]`, "/a[@b='it''s'][@c.d='']",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		rendered := e.String()
		e2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendered form %q does not reparse: %v", src, rendered, err)
		}
		if !reflect.DeepEqual(e2, e) {
			t.Fatalf("Parse(String()) is not the identity: %q -> %q -> %q", src, rendered, e2.String())
		}
	})
}
