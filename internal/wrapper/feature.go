package wrapper

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
)

// FeatureSpace is the shared implementation of feature-based inductors
// (paper Sec. 4.2): every text node carries a set of (attribute, value)
// features; induction intersects the label features and extraction takes
// the nodes that have them all — the conjunction of the features' member
// sets. TABLE and XPATH are thin constructors over this type.
//
// Attributes and features are interned to dense ids in first-seen order
// (FeatureID). The numbering is observable — Features() is sorted by it —
// so a constructor's rules are reproducible only while it first names each
// feature in the same order. A text node's own list is kept in the order
// its features were attached, not sorted: nothing reads it in id order.
// Induce sorts what it returns, and a node has at most one feature of an
// attribute (a parsed element keeps the first of a repeated attribute),
// which Subdivide and AttrValue pick out wherever it sits.
//
// A FeatureSpace is not safe for concurrent use: Induce stamps features in
// a scratch array of the space's.
type FeatureSpace struct {
	name string
	c    *corpus.Corpus

	nodeFeats [][]int32 // ordinal -> feature ids, in the order attached
	members   []members // feature id -> the text nodes that have it
	featAttr  []int32   // feature id -> attr id
	featVal   []string
	attrs     []Attr
	attrIDs   map[Attr]int32
	byKey     map[featKey]int32
	// slab, lists and words are what is left of the arrays nodes' first
	// feature lists, features' member lists and features' bitset words
	// are carved from.
	slab  []int32
	lists []int32
	words []uint64
	// denseAt is the length at which a member list takes as many bytes as
	// a bitset over the universe.
	denseAt int
	// stamp[fid] counts the labels, of the one Induce running, that have
	// feature fid — as long as every label before them had it too. Zero
	// between calls.
	stamp []int32

	// renderRule converts an intersected feature set into the wrapper
	// language's native syntax.
	renderRule func(fs *FeatureSpace, featIDs []int32) string

	induceCalls int64
}

// members holds the text nodes that have one feature: a sorted list of
// their ordinals while the list is shorter than a bitset over the universe,
// and the bitset's words (non-nil) from then on. Most features of a listing
// site are a child number a few records share: a bitset each would zero
// and keep universe/8 bytes for them.
type members struct {
	list []int32
	bits []uint64
}

// has reports whether the text node with ordinal ord is a member.
func (m *members) has(ord int32) bool {
	if m.bits != nil {
		return m.bits[ord>>6]&(1<<(ord&63)) != 0
	}
	if n := len(m.list); n == 0 || m.list[n-1] < ord {
		return false
	}
	_, found := slices.BinarySearch(m.list, ord)
	return found
}

// set returns the bitset of a dense feature's members.
func (fs *FeatureSpace) set(m *members) bitset.Set { return bitset.Over(fs.c.NumTexts(), m.bits) }

// featKey identifies a feature: an interned attribute and its value.
type featKey struct {
	attr int32
	val  string
}

// NewFeatureSpace creates an empty feature space over the corpus's text
// universe. Constructors populate it via AddFeature (or FeatureID and
// Attach, when they can name a feature once and attach it to many nodes).
func NewFeatureSpace(name string, c *corpus.Corpus,
	render func(fs *FeatureSpace, featIDs []int32) string) *FeatureSpace {
	fs := &FeatureSpace{
		name:       name,
		c:          c,
		nodeFeats:  make([][]int32, c.NumTexts()),
		denseAt:    2 * ((c.NumTexts() + 63) / 64),
		attrIDs:    make(map[Attr]int32),
		byKey:      make(map[featKey]int32),
		renderRule: render,
	}
	return fs
}

// FeatureID interns the feature (a, value) — and a, when it is new — and
// returns the feature's id.
func (fs *FeatureSpace) FeatureID(a Attr, value string) int32 {
	return fs.FeatureOf(fs.AttrID(a), value)
}

// AttrID interns the attribute a and returns its id. A constructor that
// names one attribute for many features can ask once and intern each
// feature with FeatureOf.
func (fs *FeatureSpace) AttrID(a Attr) int32 {
	aid, ok := fs.attrIDs[a]
	if !ok {
		aid = int32(len(fs.attrs))
		fs.attrIDs[a] = aid
		fs.attrs = append(fs.attrs, a)
	}
	return aid
}

// FeatureOf interns the feature (the attribute with id aid, value) and
// returns its id.
func (fs *FeatureSpace) FeatureOf(aid int32, value string) int32 {
	key := featKey{aid, value}
	fid, ok := fs.byKey[key]
	if !ok {
		fid = int32(len(fs.members))
		fs.byKey[key] = fid
		fs.members = append(fs.members, members{})
		fs.featAttr = append(fs.featAttr, aid)
		fs.featVal = append(fs.featVal, value)
	}
	return fid
}

// featSlab is how many feature ids one array of node feature lists holds,
// listSlab how many ordinals one array of member lists does, and
// featBitsChunk how many features' bitsets one array of words does.
const (
	featSlab      = 1 << 13
	listSlab      = 1 << 12
	featBitsChunk = 32
)

// addMember makes the text node with ordinal ord a member of m, which it
// is not, where Attach's in-order append cannot: into the middle of the
// list, or past its capacity. A full list grows by carving one twice as
// long from the shared array, and a full list denseAt long becomes a
// bitset carved from the shared words.
func (fs *FeatureSpace) addMember(m *members, ord int32) {
	if n := len(m.list); n == cap(m.list) {
		if n >= fs.denseAt {
			w := (fs.c.NumTexts() + 63) / 64
			if len(fs.words) < w {
				fs.words = make([]uint64, w*featBitsChunk)
			}
			m.bits, fs.words = fs.words[:w:w], fs.words[w:]
			for _, o := range m.list {
				m.bits[o>>6] |= 1 << (o & 63)
			}
			m.bits[ord>>6] |= 1 << (ord & 63)
			m.list = nil
			return
		}
		c := max(4, 2*n)
		if len(fs.lists) < c {
			fs.lists = make([]int32, max(listSlab, c))
		}
		m.list, fs.lists = append(fs.lists[:0:c], m.list...), fs.lists[c:]
	}
	i, _ := slices.BinarySearch(m.list, ord)
	m.list = slices.Insert(m.list, i, ord)
}

// Attach gives the text node with the given ordinal every feature in fids.
// A feature the node already has is skipped.
//
// A node's first list is carved from a shared array, capped at its length,
// so a later Attach to the same node copies it instead of writing over the
// next node's list: a text node costs no allocation of its own.
func (fs *FeatureSpace) Attach(ord int, fids []int32) {
	feats, carve := fs.nodeFeats[ord], fs.nodeFeats[ord] == nil
	if carve {
		if len(fs.slab) < len(fids) {
			fs.slab = make([]int32, max(featSlab, len(fids)))
		}
		feats = fs.slab[:0:len(fids)]
	} else {
		feats = slices.Grow(feats, len(fids))
	}
	o := int32(ord)
	for _, fid := range fids {
		m := &fs.members[fid]
		switch n := len(m.list); {
		case m.bits != nil:
			w, bit := &m.bits[o>>6], uint64(1)<<(o&63)
			if *w&bit != 0 {
				continue
			}
			*w |= bit
		case n < cap(m.list) && (n == 0 || m.list[n-1] < o):
			m.list = append(m.list, o) // nodes mostly come in order
		case m.has(o):
			continue
		default:
			fs.addMember(m, o)
		}
		feats = append(feats, fid)
	}
	if carve {
		feats = feats[:len(feats):len(feats)]
		fs.slab = fs.slab[len(feats):]
	}
	fs.nodeFeats[ord] = feats
}

// AddFeature attaches feature (a, value) to the text node with the given
// ordinal. Adding the same feature twice to a node is a no-op.
func (fs *FeatureSpace) AddFeature(ord int, a Attr, value string) {
	fs.Attach(ord, []int32{fs.FeatureID(a, value)})
}

// Name implements Inductor.
func (fs *FeatureSpace) Name() string { return fs.name }

// Corpus implements Inductor.
func (fs *FeatureSpace) Corpus() *corpus.Corpus { return fs.c }

// InduceCalls returns the number of Induce invocations so far; the
// enumeration experiments (Figs. 2a–2c) report this counter.
func (fs *FeatureSpace) InduceCalls() int64 { return fs.induceCalls }

// ResetInduceCalls zeroes the call counter.
func (fs *FeatureSpace) ResetInduceCalls() { fs.induceCalls = 0 }

// FeatureWrapper is the wrapper produced by a FeatureSpace.
type FeatureWrapper struct {
	fs      *FeatureSpace
	featIDs []int32
	out     *bitset.Set
}

// Extract implements Wrapper.
func (w *FeatureWrapper) Extract() *bitset.Set { return w.out }

// Rule implements Wrapper.
func (w *FeatureWrapper) Rule() string {
	if w.fs.renderRule != nil {
		return w.fs.renderRule(w.fs, w.featIDs)
	}
	var parts []string
	for _, fid := range w.featIDs {
		a := w.fs.attrs[w.fs.featAttr[fid]]
		parts = append(parts, fmt.Sprintf("%s=%q", a, w.fs.featVal[fid]))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Features exposes the intersected feature ids (tests and rule rendering).
func (w *FeatureWrapper) Features() []int32 { return w.featIDs }

// Space returns the FeatureSpace the wrapper was induced in; compilation to
// a Portable dispatches on its Name.
func (w *FeatureWrapper) Space() *FeatureSpace { return w.fs }

// Induce implements Inductor: φ(L) = {n | F(n) ⊇ ∩ F(ℓ)}.
//
// The labels' lists are intersected by stamping: the k-th label advances
// the stamp of each of its features that the k−1 labels before it all
// had, so a feature every label has ends stamped with their count. Only
// the intersection is sorted.
func (fs *FeatureSpace) Induce(labels *bitset.Set) (Wrapper, error) {
	fs.induceCalls++
	ords := labels.Indices()
	if len(ords) == 0 {
		return nil, fmt.Errorf("%s: cannot induce from an empty label set", fs.name)
	}
	if len(fs.stamp) < len(fs.members) {
		fs.stamp = make([]int32, len(fs.members))
	}
	first := fs.nodeFeats[ords[0]]
	for _, fid := range first {
		fs.stamp[fid] = 1
	}
	k := int32(1)
	for _, ord := range ords[1:] {
		left := 0
		for _, fid := range fs.nodeFeats[ord] {
			if fs.stamp[fid] == k {
				fs.stamp[fid] = k + 1
				left++
			}
		}
		k++
		if left == 0 {
			break
		}
	}
	n := 0
	for _, fid := range first {
		if fs.stamp[fid] == k {
			n++
		}
	}
	inter := make([]int32, 0, n)
	for _, fid := range first {
		if fs.stamp[fid] == k {
			inter = append(inter, fid)
		}
		fs.stamp[fid] = 0
	}
	slices.Sort(inter)
	return &FeatureWrapper{fs: fs, featIDs: inter, out: fs.having(inter)}, nil
}

// having returns the set of text nodes that have every feature in fids:
// every node for no features; the members of the shortest list that have
// the rest, when a feature is a list; the conjunction of the bitsets, when
// every feature is one.
func (fs *FeatureSpace) having(fids []int32) *bitset.Set {
	if len(fids) == 0 {
		// No shared features: the wrapper generalizes to everything.
		return fs.c.FullSet()
	}
	var shortest *members
	for _, fid := range fids {
		if m := &fs.members[fid]; m.bits == nil && (shortest == nil || len(m.list) < len(shortest.list)) {
			shortest = m
		}
	}
	if shortest == nil {
		first := fs.set(&fs.members[fids[0]])
		out := first.Clone()
		for _, fid := range fids[1:] {
			bits := fs.set(&fs.members[fid])
			out.AndWith(&bits)
		}
		return out
	}
	out := fs.c.EmptySet()
	for _, ord := range shortest.list {
		all := true
		for _, fid := range fids {
			if all = fs.members[fid].has(ord); !all {
				break
			}
		}
		if all {
			out.Add(int(ord))
		}
	}
	return out
}

// Attrs implements FeatureInductor.
func (fs *FeatureSpace) Attrs(labels *bitset.Set) []Attr {
	seen := make(map[int32]bool)
	var out []Attr
	labels.ForEach(func(ord int) {
		for _, fid := range fs.nodeFeats[ord] {
			aid := fs.featAttr[fid]
			if !seen[aid] {
				seen[aid] = true
				out = append(out, fs.attrs[aid])
			}
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}

// Subdivide implements FeatureInductor: partition s by the value of a.
// Nodes lacking attribute a are omitted (the subdivision need not cover s).
func (fs *FeatureSpace) Subdivide(s *bitset.Set, a Attr) []*bitset.Set {
	aid, ok := fs.attrIDs[a]
	if !ok {
		return nil
	}
	groups := make(map[int32]*bitset.Set)
	var order []int32
	s.ForEach(func(ord int) {
		if fid, ok := fs.featureOf(ord, aid); ok {
			g, ok := groups[fid]
			if !ok {
				g = bitset.New(fs.c.NumTexts())
				groups[fid] = g
				order = append(order, fid)
			}
			g.Add(ord)
		}
	})
	out := make([]*bitset.Set, 0, len(order))
	for _, fid := range order {
		out = append(out, groups[fid])
	}
	return out
}

// AttrValue returns node ord's value for attribute a, if any. Used by rule
// rendering and tests.
func (fs *FeatureSpace) AttrValue(ord int, a Attr) (string, bool) {
	aid, ok := fs.attrIDs[a]
	if !ok {
		return "", false
	}
	if fid, ok := fs.featureOf(ord, aid); ok {
		return fs.featVal[fid], true
	}
	return "", false
}

// featureOf returns node ord's feature of the attribute with id aid. Should
// a hand-built space give a node two, it is the lower id — the one a sorted
// list would have held first.
func (fs *FeatureSpace) featureOf(ord int, aid int32) (int32, bool) {
	found := int32(-1)
	for _, fid := range fs.nodeFeats[ord] {
		if fs.featAttr[fid] == aid && (found < 0 || fid < found) {
			found = fid
		}
	}
	return found, found >= 0
}

// FeatureAttr resolves the attribute of a feature id.
func (fs *FeatureSpace) FeatureAttr(fid int32) Attr { return fs.attrs[fs.featAttr[fid]] }

// FeatureValue resolves the value of a feature id.
func (fs *FeatureSpace) FeatureValue(fid int32) string { return fs.featVal[fid] }

var (
	_ Inductor        = (*FeatureSpace)(nil)
	_ FeatureInductor = (*FeatureSpace)(nil)
	_ Wrapper         = (*FeatureWrapper)(nil)
)
