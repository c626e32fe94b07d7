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

// refMatchesText is MatchesText as it was before it lowered ASCII text on
// its own stack: strings.ToLower, then the words as slices of the copy.
func refMatchesText(d *Dictionary, text string) bool {
	words := appendWords(nil, strings.ToLower(text))
	for i, w := range words {
		for _, entry := range d.byFirst[w] {
			if len(entry) <= len(words)-i && slices.Equal(words[i:i+len(entry)], entry) {
				return true
			}
		}
	}
	return false
}

// matchEntries are dictionary entries a fold could get wrong: words that
// non-ASCII runes lower into (the Kelvin sign to k, İ to i), and entries of
// several words.
var matchEntries = []string{"k", "300 k", "istanbul", "i", "kebap", "porter furniture", "ss", "cafe", "tower 101"}

// matchCases add to tokenizeCases texts of more than lowerBuf bytes, with
// the mention on either side of the boundary, ASCII and not.
var matchCases = append(slices.Clone(tokenizeCases),
	strings.Repeat("filler ", 40)+"Porter   FURNITURE tail",
	strings.Repeat("x", lowerBuf-6)+" PORTER FURNITURE",
	strings.Repeat("x", lowerBuf+1),
	strings.Repeat("É ", 200)+"300 K",
	"KEBAP",
	"ß",
)

func TestMatchesTextMatchesReference(t *testing.T) {
	d := NewDictionary("d", matchEntries)
	for _, s := range matchCases {
		if got, want := d.MatchesText(s), refMatchesText(d, s); got != want {
			t.Errorf("MatchesText(%q) = %v, reference %v", s, got, want)
		}
	}
}

// FuzzMatchesText holds MatchesText to the reference on any text, against
// the fixed entries and one fuzzed entry.
func FuzzMatchesText(f *testing.F) {
	for _, s := range matchCases {
		f.Add("porter", s)
	}
	f.Add("K", "300 K")
	f.Add("İ", "İstanbul")
	f.Add("ß", "STRASSE ß")
	f.Fuzz(func(t *testing.T, entry, text string) {
		d := NewDictionary("d", append(slices.Clone(matchEntries), entry))
		if got, want := d.MatchesText(text), refMatchesText(d, text); got != want {
			t.Fatalf("entry %q: MatchesText(%q) = %v, reference %v", entry, text, got, want)
		}
	})
}

// TestMatchesTextAllocFree: an ASCII text, capitals and all, is lowered and
// looked up without allocating — the annotator meets every text node of
// every training page.
func TestMatchesTextAllocFree(t *testing.T) {
	d := NewDictionary("d", matchEntries)
	for _, s := range []string{"PORTER FURNITURE", "Ben & Jerry's #42, 3rd Ave.", "Kebap House, Tower 101", strings.Repeat("Word ", 50)} {
		if avg := testing.AllocsPerRun(100, func() { d.MatchesText(s) }); avg != 0 {
			t.Errorf("MatchesText(%q): %.1f allocations, want 0", s, avg)
		}
	}
}
