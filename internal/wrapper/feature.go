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
// the conjunction of the per-feature bitsets. TABLE and XPATH are thin
// constructors over this type.
//
// Attributes and features are interned to dense ids in first-seen order
// (FeatureID). The numbering is observable — Features() exposes it
// and sorted feature lists follow it — so a constructor's rules are
// reproducible only while it first names each attribute and feature in the
// same order.
type FeatureSpace struct {
	name string
	c    *corpus.Corpus

	nodeFeats [][]int32 // ordinal -> sorted feature ids
	featBits  []*bitset.Set
	featAttr  []int32 // feature id -> attr id
	featVal   []string
	attrs     []Attr
	attrIDs   map[Attr]int32
	byKey     map[featKey]int32
	// slab is what is left of the array nodes' first feature lists are
	// carved from.
	slab []int32

	// renderRule converts an intersected feature set into the wrapper
	// language's native syntax.
	renderRule func(fs *FeatureSpace, featIDs []int32) string

	induceCalls int64
}

// featKey identifies a feature: an interned attribute and its value.
type featKey struct {
	attr int32
	val  string
}

// NewFeatureSpace creates an empty feature space over the corpus's text
// universe. Constructors populate it via AddFeature (or FeatureID and
// Attach, when they can name a feature once and attach it to many nodes)
// and then call Seal.
func NewFeatureSpace(name string, c *corpus.Corpus,
	render func(fs *FeatureSpace, featIDs []int32) string) *FeatureSpace {
	fs := &FeatureSpace{
		name:       name,
		c:          c,
		nodeFeats:  make([][]int32, c.NumTexts()),
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
		fid = int32(len(fs.featBits))
		fs.byKey[key] = fid
		fs.featBits = append(fs.featBits, bitset.New(fs.c.NumTexts()))
		fs.featAttr = append(fs.featAttr, aid)
		fs.featVal = append(fs.featVal, value)
	}
	return fid
}

// featSlab is how many feature ids one array of node feature lists holds.
const featSlab = 1 << 13

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
	for _, fid := range fids {
		if bits := fs.featBits[fid]; !bits.Has(ord) {
			bits.Add(ord)
			feats = append(feats, fid)
		}
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

// Seal sorts per-node feature lists; must be called once after population.
func (fs *FeatureSpace) Seal() {
	for _, f := range fs.nodeFeats {
		slices.Sort(f)
	}
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
func (fs *FeatureSpace) Induce(labels *bitset.Set) (Wrapper, error) {
	fs.induceCalls++
	ords := labels.Indices()
	if len(ords) == 0 {
		return nil, fmt.Errorf("%s: cannot induce from an empty label set", fs.name)
	}
	inter := append([]int32(nil), fs.nodeFeats[ords[0]]...)
	for _, ord := range ords[1:] {
		inter = intersectSorted(inter, fs.nodeFeats[ord])
		if len(inter) == 0 {
			break
		}
	}
	var out *bitset.Set
	if len(inter) == 0 {
		// No shared features: the wrapper generalizes to everything.
		out = fs.c.FullSet()
	} else {
		out = fs.featBits[inter[0]].Clone()
		for _, fid := range inter[1:] {
			out.AndWith(fs.featBits[fid])
		}
	}
	return &FeatureWrapper{fs: fs, featIDs: inter, out: out}, nil
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
		for _, fid := range fs.nodeFeats[ord] {
			if fs.featAttr[fid] == aid {
				g, ok := groups[fid]
				if !ok {
					g = bitset.New(fs.c.NumTexts())
					groups[fid] = g
					order = append(order, fid)
				}
				g.Add(ord)
				break
			}
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
	for _, fid := range fs.nodeFeats[ord] {
		if fs.featAttr[fid] == aid {
			return fs.featVal[fid], true
		}
	}
	return "", false
}

// FeatureAttr resolves the attribute of a feature id.
func (fs *FeatureSpace) FeatureAttr(fid int32) Attr { return fs.attrs[fs.featAttr[fid]] }

// FeatureValue resolves the value of a feature id.
func (fs *FeatureSpace) FeatureValue(fid int32) string { return fs.featVal[fid] }

func intersectSorted(a, b []int32) []int32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

var (
	_ Inductor        = (*FeatureSpace)(nil)
	_ FeatureInductor = (*FeatureSpace)(nil)
	_ Wrapper         = (*FeatureWrapper)(nil)
)
