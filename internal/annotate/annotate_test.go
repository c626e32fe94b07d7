package annotate

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autowrap/internal/corpus"
)

func listingCorpus() *corpus.Corpus {
	return corpus.ParseHTML([]string{
		`<div><u>PORTER FURNITURE</u><br>201 Hwy 30 West<br>WOODLAND, MS 38652</div>`,
		`<div><u>BESTBUY</u><br>10250 Oak Blvd<br>DAYTON, OH 45402</div>`,
	})
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"Porter Furniture", "porter furniture"},
		{"  A&B, Inc. ", "a b inc"},
		{"WOODLAND, MS 38652", "woodland ms 38652"},
		{"", ""},
		{"---", ""},
		{"Héllo", "h llo"}, // non-ASCII letters are boundaries
	}
	for _, c := range cases {
		got := strings.Join(Tokenize(c.in), " ")
		if got != c.want {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDictionaryExactMention(t *testing.T) {
	d := NewDictionary("d", []string{"Porter Furniture"})
	c := listingCorpus()
	labels := d.Annotate(c)
	if labels.Count() != 1 {
		t.Fatalf("labels = %v", c.Contents(labels))
	}
	if c.TextContent(labels.Indices()[0]) != "PORTER FURNITURE" {
		t.Fatalf("labeled %q", c.TextContent(labels.Indices()[0]))
	}
}

func TestDictionaryContainmentInsideLongerText(t *testing.T) {
	// "Woodland" as a business name matches the address line — the paper's
	// organic noise mode.
	d := NewDictionary("d", []string{"Woodland"})
	c := listingCorpus()
	labels := d.Annotate(c)
	if labels.Count() != 1 || !strings.Contains(c.TextContent(labels.Indices()[0]), "WOODLAND") {
		t.Fatalf("labels = %v", c.Contents(labels))
	}
}

func TestDictionaryWordBoundaries(t *testing.T) {
	d := NewDictionary("d", []string{"Port"})
	c := listingCorpus()
	// "Port" must not match inside "PORTER".
	if labels := d.Annotate(c); !labels.Empty() {
		t.Fatalf("substring matched across word boundary: %v", c.Contents(labels))
	}
}

func TestDictionaryMultiWordOrder(t *testing.T) {
	d := NewDictionary("d", []string{"Furniture Porter"})
	c := listingCorpus()
	if labels := d.Annotate(c); !labels.Empty() {
		t.Fatal("reversed word order should not match")
	}
}

func TestDictionaryCaseInsensitive(t *testing.T) {
	d := NewDictionary("d", []string{"porter furniture"})
	if d.Annotate(listingCorpus()).Count() != 1 {
		t.Fatal("case-insensitive match failed")
	}
}

func TestDictionarySize(t *testing.T) {
	d := NewDictionary("d", []string{"a", "b", "", "   "})
	if d.Size() != 2 {
		t.Fatalf("Size = %d, want 2 (blank entries dropped)", d.Size())
	}
}

func TestReadDictionary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "names.txt")
	if err := os.WriteFile(path, []byte("# stores\n\n  Porter Furniture  \nbestbuy\n#woodland\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDictionary(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "names.txt" || d.Size() != 2 {
		t.Fatalf("name %q size %d, want names.txt with 2 entries", d.Name(), d.Size())
	}
	if !d.MatchesText("PORTER FURNITURE") || d.MatchesText("WOODLAND, MS 38652") {
		t.Fatal("entries trimmed and comments skipped, or not")
	}
	if err := os.WriteFile(path, []byte("# only a comment\n---\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDictionary(path); err == nil || !strings.Contains(err.Error(), "is empty") {
		t.Fatalf("a dictionary with no usable entry: %v", err)
	}
	if _, err := ReadDictionary(filepath.Join(dir, "missing.txt")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a missing file: %v", err)
	}
}

func TestZipcodeRegexp(t *testing.T) {
	a := MustRegexp("zip", ZipcodePattern)
	c := listingCorpus()
	labels := a.Annotate(c)
	// Matches: "WOODLAND, MS 38652", "10250 Oak Blvd" (5-digit street
	// number — deliberate noise), "DAYTON, OH 45402".
	if labels.Count() != 3 {
		t.Fatalf("zip labels = %v", c.Contents(labels))
	}
}

func TestZipcodeRejectsLongerRuns(t *testing.T) {
	a := MustRegexp("zip", ZipcodePattern)
	c := corpus.ParseHTML([]string{`<div>123456</div><div>1234</div><div>12345</div>`})
	labels := a.Annotate(c)
	if labels.Count() != 1 {
		t.Fatalf("labels = %v, want only the 5-digit run", c.Contents(labels))
	}
}

func TestNewRegexpError(t *testing.T) {
	if _, err := NewRegexp("bad", "("); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestControlledAnnotatorRates(t *testing.T) {
	// A larger corpus for stable frequencies.
	var rows []string
	for i := 0; i < 40; i++ {
		rows = append(rows, `<div><b>gold`+string(rune('a'+i%26))+`</b><span>junk</span><span>junk2</span></div>`)
	}
	c := corpus.ParseHTML(rows)
	gold := c.MatchingText(func(s string) bool { return strings.HasPrefix(s, "gold") })
	a := &Controlled{Gold: gold, P1: 0.8, P2: 0.1, Seed: 42}
	labels := a.Annotate(c)
	st := Measure(c, labels, gold)
	gotR := float64(st.TP) / float64(gold.Count())
	gotFPRate := float64(st.FP) / float64(c.NumTexts()-gold.Count())
	if math.Abs(gotR-0.8) > 0.2 {
		t.Errorf("recall %v too far from 0.8", gotR)
	}
	if math.Abs(gotFPRate-0.1) > 0.1 {
		t.Errorf("false positive rate %v too far from 0.1", gotFPRate)
	}
}

func TestControlledDeterministic(t *testing.T) {
	c := listingCorpus()
	gold := c.SetOf(0)
	a := &Controlled{Gold: gold, P1: 0.5, P2: 0.5, Seed: 9}
	b := &Controlled{Gold: gold, P1: 0.5, P2: 0.5, Seed: 9}
	if !a.Annotate(c).Equal(b.Annotate(c)) {
		t.Fatal("controlled annotator not deterministic in seed")
	}
}

func TestControlledFor(t *testing.T) {
	var rows []string
	for i := 0; i < 50; i++ {
		rows = append(rows, `<div><b>g`+string(rune('a'+i%26))+string(rune('a'+i/26))+`</b><span>x</span><span>y</span><span>z</span></div>`)
	}
	c := corpus.ParseHTML(rows)
	gold := c.MatchingText(func(s string) bool { return strings.HasPrefix(s, "g") })
	a, err := ControlledFor(c, gold, 0.3, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	labels := a.Annotate(c)
	st := Measure(c, labels, gold)
	// Expected precision 0.5, recall 0.3 (wide tolerance: one draw).
	if p := st.Precision(); math.Abs(p-0.5) > 0.25 {
		t.Errorf("precision %v too far from 0.5", p)
	}
	if r := st.Recall(); math.Abs(r-0.3) > 0.2 {
		t.Errorf("recall %v too far from 0.3", r)
	}
}

func TestControlledForValidation(t *testing.T) {
	c := listingCorpus()
	gold := c.SetOf(0)
	if _, err := ControlledFor(c, gold, 0, 0.5, 1); err == nil {
		t.Fatal("recall 0 should be rejected")
	}
	if _, err := ControlledFor(c, gold, 0.5, 1.5, 1); err == nil {
		t.Fatal("precision > 1 should be rejected")
	}
	if _, err := ControlledFor(c, c.EmptySet(), 0.5, 0.5, 1); err == nil {
		t.Fatal("empty gold should be rejected")
	}
}

func TestStatsMath(t *testing.T) {
	s := Stats{TP: 8, FP: 2, FN: 4, GoldN: 12, NonGoldN: 100}
	if p := s.Precision(); p != 0.8 {
		t.Fatalf("precision = %v", p)
	}
	if r := s.Recall(); math.Abs(r-8.0/12) > 1e-12 {
		t.Fatalf("recall = %v", r)
	}
	p, r := s.ModelParams()
	if math.Abs(p-(1-2.0/100)) > 1e-12 {
		t.Fatalf("model p = %v", p)
	}
	if math.Abs(r-8.0/12) > 1e-12 {
		t.Fatalf("model r = %v", r)
	}
	sum := s.Add(Stats{TP: 2, FP: 1, FN: 1, GoldN: 3, NonGoldN: 10})
	if sum.TP != 10 || sum.FP != 3 || sum.GoldN != 15 || sum.NonGoldN != 110 {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestStatsEdgeCases(t *testing.T) {
	empty := Stats{}
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Fatal("empty stats conventions")
	}
	p, r := empty.ModelParams()
	if p != 1 || r != 1 {
		t.Fatalf("empty ModelParams = %v, %v", p, r)
	}
}
