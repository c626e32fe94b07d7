package lr

import (
	"fmt"
	"strings"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/textutil"
	"autowrap/internal/wrapper"
)

// HLRT implements the Head-Left-Right-Tail extension of the LR class
// (Kushmerick's WIEN; the paper's Sec. 5: "There are various extensions of
// this basic language, e.g., HLRT wrappers, which, in addition, have
// strings H and T that limit the context under which LR can be applied").
//
// A wrapper is a quadruple (h, t, l, r): on each page, extraction is
// restricted to the region after the first occurrence of h and before the
// last occurrence of t; within the region the usual LR delimiters apply.
// The head/tail strings let the wrapper skip navigation chrome whose local
// markup is indistinguishable from the record list.
//
// Induction learns h as the longest common suffix of the page prefixes
// preceding the first label of each labeled page, and t as the longest
// common prefix of the page suffixes following the last label. This
// simplified induction preserves FIDELITY (verified by property tests)
// but, unlike WIEN's exact candidate search, is neither MONOTONE nor
// CLOSED in general: adding labels can relocate the region anchors. The
// paper's enumeration guarantees therefore do not transfer to this
// variant; use it as a direct (more expressive) learner where head/tail
// junk defeats plain LR delimiters, or plug in a full WIEN-style HLRT
// induction to regain well-behavedness.
type HLRT struct {
	c *corpus.Corpus
	// lr carries the per-node context tables; HLRT shares them.
	lr *Inductor
	// maxRegion caps the learned h and t lengths.
	maxRegion int

	induceCalls int64
}

// HLRTWrapper is an induced (h, t, l, r) rule.
type HLRTWrapper struct {
	Head  string
	Tail  string
	Left  string
	Right string
	out   *bitset.Set
}

// Extract implements wrapper.Wrapper.
func (w *HLRTWrapper) Extract() *bitset.Set { return w.out }

// Rule implements wrapper.Wrapper.
func (w *HLRTWrapper) Rule() string {
	return fmt.Sprintf("HLRT(%q, %q, %q, %q)", w.Head, w.Tail, w.Left, w.Right)
}

// DefaultMaxRegion caps head/tail delimiter length.
const DefaultMaxRegion = 96

// NewHLRT builds the HLRT inductor. maxContext caps l/r (0 selects
// DefaultMaxContext); maxRegion caps h/t (0 selects DefaultMaxRegion).
func NewHLRT(c *corpus.Corpus, maxContext, maxRegion int) *HLRT {
	if maxRegion <= 0 {
		maxRegion = DefaultMaxRegion
	}
	return &HLRT{c: c, lr: New(c, maxContext), maxRegion: maxRegion}
}

// Name implements wrapper.Inductor.
func (h *HLRT) Name() string { return "hlrt" }

// Corpus implements wrapper.Inductor.
func (h *HLRT) Corpus() *corpus.Corpus { return h.c }

// InduceCalls returns the number of Induce invocations.
func (h *HLRT) InduceCalls() int64 { return h.induceCalls }

// Induce implements wrapper.Inductor.
func (h *HLRT) Induce(labels *bitset.Set) (wrapper.Wrapper, error) {
	h.induceCalls++
	ords := labels.Indices()
	if len(ords) == 0 {
		return nil, fmt.Errorf("hlrt: cannot induce from an empty label set")
	}
	// l, r exactly as LR.
	left := h.lr.lefts[ords[0]]
	right := h.lr.rights[ords[0]]
	// Per labeled page: offsets of the first and last label.
	firstOn := map[int]int{}
	lastOn := map[int]int{}
	for _, ord := range ords {
		if len(ords) > 1 {
			left = left[len(left)-textutil.CommonSuffixLen(left, h.lr.lefts[ord]):]
			right = right[:textutil.CommonPrefixLen(right, h.lr.rights[ord])]
		}
		pi := h.c.PageOf(ord)
		span := h.c.Pages[pi].Spans[h.c.IndexInPage(ord)]
		start, end := span[0], span[1]
		if cur, ok := firstOn[pi]; !ok || start < cur {
			firstOn[pi] = start
		}
		if cur, ok := lastOn[pi]; !ok || end > cur {
			lastOn[pi] = end
		}
	}
	// h: longest common suffix of the page prefixes before the first label.
	// t: longest common prefix of the page suffixes after the last label.
	head, tail := "", ""
	first := true
	for pi, start := range firstOn {
		html := h.c.Pages[pi].HTML
		prefix := html[:start]
		if len(prefix) > h.maxRegion {
			prefix = prefix[len(prefix)-h.maxRegion:]
		}
		suffix := html[lastOn[pi]:]
		if len(suffix) > h.maxRegion {
			suffix = suffix[:h.maxRegion]
		}
		if first {
			head, tail = prefix, suffix
			first = false
			continue
		}
		head = head[len(head)-textutil.CommonSuffixLen(head, prefix):]
		tail = tail[:textutil.CommonPrefixLen(tail, suffix)]
	}
	return &HLRTWrapper{
		Head: head, Tail: tail, Left: left, Right: right,
		out: h.extract(head, tail, left, right),
	}, nil
}

func (h *HLRT) extract(head, tail, left, right string) *bitset.Set {
	out := h.c.EmptySet()
	for _, p := range h.c.Pages {
		regionStart := 0
		if head != "" {
			i := strings.Index(p.HTML, head)
			if i < 0 {
				continue // page lacks the head marker: nothing extracted
			}
			regionStart = i + len(head)
		}
		regionEnd := len(p.HTML)
		if tail != "" {
			i := strings.LastIndex(p.HTML, tail)
			if i < 0 {
				continue
			}
			regionEnd = i
		}
		if regionEnd <= regionStart {
			continue
		}
		for idx, n := range p.Texts {
			if p.Spans[idx][0] < regionStart || p.Spans[idx][1] > regionEnd {
				continue
			}
			ord := h.c.OrdinalOf(n)
			if strings.HasSuffix(h.lr.lefts[ord], left) &&
				strings.HasPrefix(h.lr.rights[ord], right) {
				out.Add(ord)
			}
		}
	}
	return out
}

var (
	_ wrapper.Inductor = (*HLRT)(nil)
	_ wrapper.Wrapper  = (*HLRTWrapper)(nil)
)
