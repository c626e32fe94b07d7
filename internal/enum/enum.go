// Package enum implements the wrapper-space enumeration algorithms of the
// paper's Sec. 4: given a set of noisy labels L and a wrapper inductor φ,
// compute W(L) = {φ(L1) | ∅ ≠ L1 ⊆ L} — the set of distinct wrappers any
// subset of the labels can produce — without invoking φ on all 2^|L|
// subsets.
//
//   - Naive exhaustively enumerates subsets (the baseline of Figs. 2a/2b).
//   - BottomUp (Algorithm 1) works for any well-behaved blackbox inductor
//     and makes at most k·|L| inductor calls (Theorems 1–2).
//   - TopDown (Algorithm 2) works for feature-based inductors and makes
//     exactly k calls (Theorem 3).
//
// Following the paper's Example 1 (32 subsets → 8 wrappers), the empty
// subset is excluded from the wrapper space.
package enum

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"autowrap/internal/bitset"
	"autowrap/internal/wrapper"
)

// Item is one enumerated wrapper together with the (closed) label subset
// that produced it.
type Item struct {
	Wrapper wrapper.Wrapper
	Labels  *bitset.Set
}

// Result is the output of an enumeration run.
type Result struct {
	Items []Item
	// Calls is the number of inductor invocations the algorithm made.
	Calls int64
}

// Wrappers returns just the wrappers.
func (r *Result) Wrappers() []wrapper.Wrapper {
	out := make([]wrapper.Wrapper, len(r.Items))
	for i, it := range r.Items {
		out[i] = it.Wrapper
	}
	return out
}

// Signatures returns the sorted output signatures; tests compare
// enumerations through this canonical form.
func (r *Result) Signatures() []uint64 {
	out := make([]uint64, len(r.Items))
	for i, it := range r.Items {
		out[i] = it.Wrapper.Extract().Signature()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dedup tracks unique wrappers by extraction output, found by its Hash.
type dedup struct {
	byHash map[uint64][]int
	items  []Item
}

func newDedup() *dedup { return &dedup{byHash: make(map[uint64][]int)} }

// add registers the wrapper unless an output-equal one is present; returns
// whether it was new.
func (d *dedup) add(w wrapper.Wrapper, labels *bitset.Set) bool {
	out := w.Extract()
	h := out.Hash()
	for _, i := range d.byHash[h] {
		if d.items[i].Wrapper.Extract().Equal(out) {
			return false
		}
	}
	d.byHash[h] = append(d.byHash[h], len(d.items))
	d.items = append(d.items, Item{Wrapper: w, Labels: labels})
	return true
}

// MaxNaiveLabels bounds the exhaustive enumeration; 2^20 calls is already
// prohibitively slow, mirroring the paper's "naive method is not plotted
// when it gets too large".
const MaxNaiveLabels = 20

// NaiveCalls returns the number of inductor calls exhaustive enumeration
// would make for n labels (2^n − 1); Figs. 2(a)/2(b) plot this value even
// where the naive run itself is skipped.
func NaiveCalls(n int) float64 {
	return math.Exp2(float64(n)) - 1
}

// Naive enumerates the wrapper space by invoking φ on every non-empty
// subset of L. Fails when |L| > MaxNaiveLabels.
func Naive(ind wrapper.Inductor, labels *bitset.Set) (*Result, error) {
	ords := labels.Indices()
	n := len(ords)
	if n == 0 {
		return &Result{}, nil
	}
	if n > MaxNaiveLabels {
		return nil, fmt.Errorf("enum: naive enumeration infeasible for %d labels (max %d)",
			n, MaxNaiveLabels)
	}
	d := newDedup()
	var calls int64
	universe := ind.Corpus().NumTexts()
	for mask := 1; mask < 1<<uint(n); mask++ {
		s := bitset.New(universe)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Add(ords[i])
			}
		}
		w, err := ind.Induce(s)
		if err != nil {
			return nil, err
		}
		calls++
		d.add(w, s)
	}
	return &Result{Items: d.items, Calls: calls}, nil
}

// Options bounds enumeration effort; zero values select the defaults.
type Options struct {
	// MaxCalls aborts the run when the inductor has been invoked this many
	// times (guard against non-well-behaved inductors). Default 5,000,000.
	MaxCalls int64
}

func (o Options) maxCalls() int64 {
	if o.MaxCalls <= 0 {
		return 5_000_000
	}
	return o.MaxCalls
}

// BottomUp implements Algorithm 1. It maintains a worklist Z of closed
// label subsets, always expands a smallest one by a single label, and
// records the closure φ̆(s∪ℓ) = φ(s∪ℓ) ∩ L of each expansion. For a
// well-behaved inductor it is sound and complete (Theorem 1) and makes at
// most k·|L| inductor calls (Theorem 2).
func BottomUp(ind wrapper.Inductor, labels *bitset.Set, opt Options) (*Result, error) {
	d := newDedup()
	var calls int64
	universe := ind.Corpus().NumTexts()
	labelOrds := labels.Indices()
	if len(labelOrds) == 0 {
		return &Result{}, nil
	}

	type entry struct {
		set  *bitset.Set
		size int
	}
	inZ := make(map[uint64][]*bitset.Set)      // membership for dedup
	expanded := make(map[uint64][]*bitset.Set) // already-processed sets
	contains := func(m map[uint64][]*bitset.Set, s *bitset.Set) bool {
		for _, t := range m[s.Hash()] {
			if t.Equal(s) {
				return true
			}
		}
		return false
	}
	insert := func(m map[uint64][]*bitset.Set, s *bitset.Set) {
		h := s.Hash()
		m[h] = append(m[h], s)
	}

	var z []entry
	empty := bitset.New(universe)
	z = append(z, entry{set: empty, size: 0})
	insert(inZ, empty)

	for len(z) > 0 {
		// Pick a smallest set (step 4). A linear scan keeps the code close
		// to the pseudocode; |Z| stays small in practice.
		best := 0
		for i := 1; i < len(z); i++ {
			if z[i].size < z[best].size {
				best = i
			}
		}
		s := z[best].set
		z[best] = z[len(z)-1]
		z = z[:len(z)-1]
		if contains(expanded, s) {
			continue
		}
		insert(expanded, s)

		for _, ell := range labelOrds {
			if s.Has(ell) {
				continue
			}
			if calls >= opt.maxCalls() {
				return nil, fmt.Errorf("enum: BottomUp exceeded %d inductor calls; inductor may not be well-behaved", opt.maxCalls())
			}
			ext := s.Clone()
			ext.Add(ell)
			w, err := ind.Induce(ext) // step 7
			if err != nil {
				return nil, err
			}
			calls++
			snew := bitset.And(w.Extract(), labels) // step 8: φ̆(s∪ℓ)
			d.add(w, snew)                          // step 9
			if !snew.Equal(labels) && !contains(inZ, snew) && !contains(expanded, snew) {
				insert(inZ, snew)
				z = append(z, entry{set: snew, size: snew.Count()}) // step 11
			}
		}
	}
	return &Result{Items: d.items, Calls: calls}, nil
}

// TopDown implements Algorithm 2 for feature-based inductors: starting from
// Z = {L}, each attribute pass subdivides every set in Z by that
// attribute's values; finally φ is called once per distinct set. For a
// feature-based inductor the produced sets are exactly the closed subsets
// of L, so the inductor is called exactly k times (Theorem 3).
//
// Every set the algorithm touches is a subset of L, so Z lives in L's own
// index space: label i is bit i of a ⌈|L|/64⌉-word set, whatever the size
// of the corpus. A node's value for an attribute does not depend on the set
// it is looked at in, so subdivision(s, a) = {s ∩ g : g ∈ subdivision(L, a)}:
// the inductor subdivides L once per attribute and each worklist set is cut
// with that partition. Sets are expanded back to the universe only for the
// k Induce calls.
func TopDown(ind wrapper.FeatureInductor, labels *bitset.Set, opt Options) (*Result, error) {
	ords := labels.Indices() // label i is ords[i]
	if len(ords) == 0 {
		return &Result{}, nil
	}
	local := make([]int32, labels.Len()) // ordinal -> label index, read at members of L only
	for i, ord := range ords {
		local[ord] = int32(i)
	}
	nw := (len(ords) + 63) / 64

	// Z: distinct non-empty subsets of L in insertion order, nw words each,
	// back to back; seen maps a hash of a set's words to the sets with it.
	var z []uint64
	set := func(i int) []uint64 { return z[i*nw : (i+1)*nw] }
	seen := make(map[uint64][]int32)
	piece := make([]uint64, nw)
	add := func() { // piece joins Z unless it is empty or already there
		ps := bitset.Over(len(ords), piece)
		if ps.Empty() {
			return
		}
		h := ps.Hash()
		for _, i := range seen[h] {
			if slices.Equal(set(int(i)), piece) {
				return
			}
		}
		seen[h] = append(seen[h], int32(len(z)/nw))
		z = append(z, piece...)
	}
	for i := range ords {
		piece[i/64] |= 1 << uint(i%64)
	}
	add()

	var (
		parts   []uint64                   // subdivision(L, a), nw words a group
		groupOf = make([]int32, len(ords)) // label index -> its group in parts
		have    = make([]uint64, nw)       // the labels that have a
		rem     = make([]uint64, nw)
	)
	for _, a := range ind.Attrs(labels) {
		groups := ind.Subdivide(labels, a)
		parts = append(parts[:0], make([]uint64, nw*len(groups))...)
		clear(have)
		for g, group := range groups {
			group.ForEach(func(ord int) {
				i := local[ord]
				parts[g*nw+int(i/64)] |= 1 << uint(i%64)
				have[i/64] |= 1 << uint(i%64)
				groupOf[i] = int32(g)
			})
		}
		// Sets added in this pass share a's value: no-op to resplit.
		for si, n := 0, len(z)/nw; si < n; si++ {
			// rem is what is left of set si to cut: its labels that have a,
			// less the pieces cut so far. Taking the piece of the lowest
			// label left yields pieces by smallest member — the order the
			// inductor's own subdivision(s, a) lists them in.
			for w, word := range set(si) {
				rem[w] = word & have[w]
			}
			for w := 0; w < nw; {
				if rem[w] == 0 {
					w++
					continue
				}
				part := parts[int(groupOf[w*64+bits.TrailingZeros64(rem[w])])*nw:]
				for v, word := range set(si) {
					piece[v] = word & part[v]
					rem[v] &^= part[v]
				}
				add()
			}
		}
	}

	d := newDedup()
	var calls int64
	for si := 0; si < len(z)/nw; si++ {
		if calls >= opt.maxCalls() {
			return nil, fmt.Errorf("enum: TopDown exceeded %d inductor calls", opt.maxCalls())
		}
		s := bitset.New(labels.Len())
		for w, word := range set(si) {
			for ; word != 0; word &= word - 1 {
				s.Add(ords[w*64+bits.TrailingZeros64(word)])
			}
		}
		w, err := ind.Induce(s)
		if err != nil {
			return nil, err
		}
		calls++
		d.add(w, s)
	}
	return &Result{Items: d.items, Calls: calls}, nil
}

// Algorithm names for experiment reporting.
const (
	AlgoNaive    = "naive"
	AlgoBottomUp = "bottomup"
	AlgoTopDown  = "topdown"
)

// Run dispatches by algorithm name; the experiment harness uses it.
func Run(algo string, ind wrapper.Inductor, labels *bitset.Set, opt Options) (*Result, error) {
	switch algo {
	case AlgoNaive:
		return Naive(ind, labels)
	case AlgoBottomUp:
		return BottomUp(ind, labels, opt)
	case AlgoTopDown:
		find, ok := ind.(wrapper.FeatureInductor)
		if !ok {
			return nil, fmt.Errorf("enum: %s is not a feature-based inductor", ind.Name())
		}
		return TopDown(find, labels, opt)
	default:
		return nil, fmt.Errorf("enum: unknown algorithm %q", algo)
	}
}
