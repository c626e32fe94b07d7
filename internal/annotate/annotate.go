// Package annotate implements the automatic annotators of the paper's
// Sec. 2.1/7: cheap, noisy labelers that replace per-site human supervision.
//
//   - Dictionary: labels a text node when it contains an exact mention of a
//     dictionary entry (the Yahoo! Local business-name annotator; the album
//     dictionary of DISC; the cellphone-model dictionary of PRODUCTS).
//   - Regexp: labels nodes matching a pattern (the five-digit US zipcode
//     annotator of Appendix A).
//   - Controlled: the synthetic annotator of Sec. 7.4 that labels each
//     correct node with probability p1 and each incorrect node with
//     probability p2, enabling annotators with any precision/recall.
//
// The package also estimates the annotation-model parameters (p, r) from a
// sample of sites with gold labels (paper: "the p and r of the annotators
// are learned from a sample of half the websites").
package annotate

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"unicode/utf8"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
)

// Annotator produces a (noisy) label set over a corpus.
type Annotator interface {
	Name() string
	Annotate(c *corpus.Corpus) *bitset.Set
}

// Dictionary labels text nodes containing exact mentions of its entries.
// Matching is case-insensitive on word boundaries, so the entry "Woodland"
// matches the address line "WOODLAND, MS 39776" — exactly the organic error
// mode the paper reports ("errors stem from business names matching street
// addresses").
type Dictionary struct {
	name string
	// byFirst indexes entries (as word slices) by their first word.
	byFirst map[string][][]string
	size    int
}

// NewDictionary builds a dictionary annotator from entries.
func NewDictionary(name string, entries []string) *Dictionary {
	d := &Dictionary{name: name, byFirst: make(map[string][][]string)}
	for _, e := range entries {
		words := Tokenize(e)
		if len(words) == 0 {
			continue
		}
		d.byFirst[words[0]] = append(d.byFirst[words[0]], words)
		d.size++
	}
	return d
}

// ReadDictionary builds a dictionary annotator, named after the file, from
// the commands' dictionary-file format: one entry per line, blank lines
// and '#' comments skipped. A file with no usable entry is an error — an
// annotator that can label nothing cannot drive a learn.
func ReadDictionary(path string) (*Dictionary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			entries = append(entries, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d := NewDictionary(filepath.Base(path), entries)
	if d.size == 0 {
		return nil, fmt.Errorf("dictionary %s is empty", path)
	}
	return d, nil
}

// Name implements Annotator.
func (d *Dictionary) Name() string { return d.name }

// Size returns the number of usable entries.
func (d *Dictionary) Size() int { return d.size }

// Annotate implements Annotator.
func (d *Dictionary) Annotate(c *corpus.Corpus) *bitset.Set {
	return c.MatchingText(d.MatchesText)
}

// lowerBuf is how long a text MatchesText lowers on its own stack.
const lowerBuf = 256

// MatchesText reports whether the text contains an exact mention of some
// dictionary entry. An ASCII text of up to lowerBuf bytes is lowered into a
// stack buffer and its words looked up as views of it, which allocates
// nothing. Any other text is lowered by strings.ToLower: a rune such as the
// Kelvin sign lowers to an ASCII letter, which a byte-wise fold would miss.
func (d *Dictionary) MatchesText(text string) bool {
	var buf [lowerBuf]byte
	var lower []byte
	if len(text) <= lowerBuf && isASCII(text) {
		lower = buf[:len(text)]
		for i := 0; i < len(text); i++ {
			c := text[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			lower[i] = c
		}
	} else {
		lower = append(buf[:0], strings.ToLower(text)...)
	}
	// Every entry under a word is tried against the word after it before
	// the rest of the text is scanned for its third.
	for a, b := nextWord(lower, 0); a < b; {
		c, e := nextWord(lower, b)
		for _, entry := range d.byFirst[string(lower[a:b])] {
			if len(entry) == 1 || string(lower[c:e]) == entry[1] && followedBy(lower, e, entry[2:]) {
				return true
			}
		}
		a, b = c, e
	}
	return false
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// followedBy reports whether the words of lower from byte at on begin with
// words.
func followedBy(lower []byte, at int, words []string) bool {
	for _, w := range words {
		a, b := nextWord(lower, at)
		if a == b || string(lower[a:b]) != w {
			return false
		}
		at = b
	}
	return true
}

// Tokenize splits text into lowercase alphanumeric words; everything else
// is a boundary. The words are slices of the lowered string, not copies.
func Tokenize(s string) []string {
	return appendWords(nil, strings.ToLower(s))
}

// appendWords appends the words of an already lowered string to dst.
func appendWords(dst []string, lower string) []string {
	for a, b := nextWord(lower, 0); a < b; a, b = nextWord(lower, b) {
		dst = append(dst, lower[a:b])
	}
	return dst
}

// nextWord returns the bounds of the first word of lower at or after byte
// from, or an empty range at the end. A word is a run of the bytes a–z and
// 0–9. Every other byte is a boundary, the bytes of a multi-byte rune
// included — none of them is a word byte, so the split is the one a
// rune-by-rune scan makes.
func nextWord[S string | []byte](lower S, from int) (start, end int) {
	start = from
	for start < len(lower) && !isWordByte(lower[start]) {
		start++
	}
	end = start
	for end < len(lower) && isWordByte(lower[end]) {
		end++
	}
	return start, end
}

func isWordByte(c byte) bool { return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' }

// Regexp labels text nodes whose content matches the pattern.
type Regexp struct {
	name string
	re   *regexp.Regexp
}

// NewRegexp compiles a regexp annotator.
func NewRegexp(name, pattern string) (*Regexp, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("annotate: bad pattern for %s: %w", name, err)
	}
	return &Regexp{name: name, re: re}, nil
}

// MustRegexp panics on a bad pattern; for static patterns in datasets.
func MustRegexp(name, pattern string) *Regexp {
	a, err := NewRegexp(name, pattern)
	if err != nil {
		panic(err)
	}
	return a
}

// ZipcodePattern matches five-digit US zipcodes on word boundaries; this is
// the zipcode annotator of Appendix A. It deliberately also matches
// five-digit street numbers — the noise source the paper describes.
const ZipcodePattern = `(^|[^0-9])[0-9]{5}([^0-9]|$)`

// Name implements Annotator.
func (a *Regexp) Name() string { return a.name }

// Annotate implements Annotator.
func (a *Regexp) Annotate(c *corpus.Corpus) *bitset.Set {
	return c.MatchingText(a.re.MatchString)
}

// Controlled is the synthetic annotator of Sec. 7.4: given the set of
// correct nodes, it labels each correct node with probability P1 and each
// incorrect node with probability P2.
type Controlled struct {
	Gold *bitset.Set
	P1   float64
	P2   float64
	Seed int64
}

// Name implements Annotator.
func (a *Controlled) Name() string { return "controlled" }

// Annotate implements Annotator. The draw is deterministic in Seed.
func (a *Controlled) Annotate(c *corpus.Corpus) *bitset.Set {
	rng := rand.New(rand.NewSource(a.Seed))
	out := c.EmptySet()
	for ord := 0; ord < c.NumTexts(); ord++ {
		p := a.P2
		if a.Gold.Has(ord) {
			p = a.P1
		}
		if rng.Float64() < p {
			out.Add(ord)
		}
	}
	return out
}

// ControlledFor builds a Controlled annotator achieving (in expectation) the
// given recall and precision on the corpus: recall = p1 and, with n1 correct
// and n2 incorrect nodes, precision = n1·p1 / (n1·p1 + n2·p2), so
// p2 = n1·p1·(1−precision) / (precision·n2) (Sec. 7.4).
func ControlledFor(c *corpus.Corpus, gold *bitset.Set, recall, precision float64, seed int64) (*Controlled, error) {
	if recall <= 0 || recall > 1 || precision <= 0 || precision > 1 {
		return nil, fmt.Errorf("annotate: recall/precision must be in (0,1], got r=%v p=%v", recall, precision)
	}
	n1 := float64(gold.Count())
	n2 := float64(c.NumTexts() - gold.Count())
	if n1 == 0 || n2 == 0 {
		return nil, fmt.Errorf("annotate: degenerate corpus (n1=%v, n2=%v)", n1, n2)
	}
	p2 := n1 * recall * (1 - precision) / (precision * n2)
	if p2 > 1 {
		p2 = 1
	}
	return &Controlled{Gold: gold, P1: recall, P2: p2, Seed: seed}, nil
}

// Stats are observed annotator quality measures against gold labels.
type Stats struct {
	TP, FP, FN int
	// GoldN and NonGoldN are the universe partition sizes.
	GoldN, NonGoldN int
}

// Measure compares a label set against gold over one corpus.
func Measure(c *corpus.Corpus, labels, gold *bitset.Set) Stats {
	tp := bitset.AndCount(labels, gold)
	return Stats{
		TP:       tp,
		FP:       labels.Count() - tp,
		FN:       gold.Count() - tp,
		GoldN:    gold.Count(),
		NonGoldN: c.NumTexts() - gold.Count(),
	}
}

// Add pools stats across sites.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		TP: s.TP + o.TP, FP: s.FP + o.FP, FN: s.FN + o.FN,
		GoldN: s.GoldN + o.GoldN, NonGoldN: s.NonGoldN + o.NonGoldN,
	}
}

// Precision returns TP/(TP+FP), or 1 when no labels were produced.
func (s Stats) Precision() float64 {
	if s.TP+s.FP == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.TP+s.FP)
}

// Recall returns TP/|gold|, or 1 when there is no gold.
func (s Stats) Recall() float64 {
	if s.GoldN == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.GoldN)
}

// ModelParams converts pooled stats into the annotation-model parameters of
// Sec. 6: r is the per-correct-node labeling rate (the recall) and 1−p is
// the per-incorrect-node labeling rate, i.e. p = 1 − FP/|non-gold|.
func (s Stats) ModelParams() (p, r float64) {
	r = s.Recall()
	if s.NonGoldN == 0 {
		return 1, r
	}
	return 1 - float64(s.FP)/float64(s.NonGoldN), r
}
