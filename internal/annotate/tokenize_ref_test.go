package annotate

import (
	"slices"
	"strings"
	"testing"
)

// refTokenize is Tokenize as it was written before it sliced the lowered
// string: one rune at a time into a strings.Builder, a fresh string a word.
func refTokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// tokenizeCases are where a byte scan and a rune scan could part ways:
// runes that lower-case into ASCII (İ to i, the Kelvin sign to k), runes
// that do not (ß, É), combining marks, invalid UTF-8, and the empty and
// boundary-only strings.
var tokenizeCases = []string{
	"",
	" ",
	"...---...",
	"PORTER FURNITURE",
	"Ben & Jerry's #42, 3rd Ave.",
	"İstanbul İİ Kebap",
	"300 Kelvin KK",
	"Café Zoë naïve",
	"Straße ÉCOLE ǅemal",
	"東京 tower 101",
	"tab\tnew\nline\rfeed",
	"trailing word",
	"0123456789",
	"a",
	"\xff\xfeabc\xc3",
	"ẋy İ̇z",
	"mixed nbsp em",
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, s := range tokenizeCases {
		if got, want := Tokenize(s), refTokenize(s); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Errorf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
	}
	// MatchesText tokenizes into a stack buffer; a text longer than the
	// buffer must match the same way.
	long := strings.Repeat("filler ", 40) + "Porter   FURNITURE tail"
	d := NewDictionary("d", []string{"porter furniture"})
	if !d.MatchesText(long) || d.MatchesText(strings.Repeat("filler ", 40)+"porter") {
		t.Error("MatchesText disagrees with itself beyond its word buffer")
	}
}

func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Tokenize(s), refTokenize(s); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
	})
}
