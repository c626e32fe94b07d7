// Package bitset implements dense bitsets over node ordinals. Feature-based
// wrapper induction (paper Secs. 4.2 and 5) reduces every inductor call to a
// handful of AND operations over these sets, which is what makes enumerating
// the wrapper space across hundreds of websites cheap.
package bitset

import "math/bits"

// Set is a fixed-universe bitset. The zero value is an empty set over an
// empty universe; use New to size it.
type Set struct {
	words []uint64
	n     int // universe size in bits
}

// New returns an empty set over a universe of n elements.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Over returns the set over a universe of n elements whose words are the
// given ones — (n+63)/64 of them, no bit set at or past n — carved by the
// caller from an array it shares among many sets. The set and the caller
// share the words.
func Over(n int, words []uint64) Set {
	if len(words) != (n+63)/64 {
		panic("bitset: wrong number of words for the universe")
	}
	return Set{words: words[:len(words):len(words)], n: n}
}

// Full returns a set with all n elements present.
func Full(n int) *Set {
	s := New(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// FromIndices builds a set over universe n containing the given indices.
func FromIndices(n int, idx []int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

func (s *Set) trim() {
	if rem := s.n % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (uint64(1) << uint(rem)) - 1
	}
}

// Len returns the universe size.
func (s *Set) Len() int { return s.n }

// Add inserts element i.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	s.words[i/64] |= 1 << uint(i%64)
}

// Remove deletes element i if present.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	s.words[i/64] &^= 1 << uint(i%64)
}

// Has reports whether element i is present.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

// Count returns the number of elements present.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// AndWith intersects s with o in place.
func (s *Set) AndWith(o *Set) {
	s.mustMatch(o)
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// OrWith unions o into s in place.
func (s *Set) OrWith(o *Set) {
	s.mustMatch(o)
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// AndNotWith removes o's elements from s in place.
func (s *Set) AndNotWith(o *Set) {
	s.mustMatch(o)
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// And returns the intersection as a new set.
func And(a, b *Set) *Set {
	c := a.Clone()
	c.AndWith(b)
	return c
}

// Or returns the union as a new set.
func Or(a, b *Set) *Set {
	c := a.Clone()
	c.OrWith(b)
	return c
}

// AndNot returns a \ b as a new set.
func AndNot(a, b *Set) *Set {
	c := a.Clone()
	c.AndNotWith(b)
	return c
}

// AndCount returns |a ∩ b| without allocating.
func AndCount(a, b *Set) int {
	a.mustMatch(b)
	c := 0
	for i := range a.words {
		c += bits.OnesCount64(a.words[i] & b.words[i])
	}
	return c
}

// Equal reports whether the two sets contain the same elements.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	s.mustMatch(o)
	for i := range s.words {
		if s.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Indices returns the present elements in increasing order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for each present element in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Signature returns a hash identifying the set contents: 64-bit FNV-1a over
// the words as little-endian bytes. Wrapper-space deduplication keys on this
// plus Equal verification on collision. The value, not just its spread, is
// load-bearing: it is the last tie-break of core's candidate ranking, so a
// different hash function could change which wrapper wins a tie.
func (s *Set) Signature() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range s.words {
		for i := 0; i < 64; i += 8 {
			h = (h ^ (w >> uint(i) & 0xff)) * prime64
		}
	}
	return h
}

// Hash returns a hash of the set contents for lookups that verify with
// Equal: it mixes a word at a time, eight times fewer steps than
// Signature, and nothing may depend on its value.
func (s *Set) Hash() uint64 {
	var h uint64
	for _, w := range s.words {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic("bitset: mismatched universes")
	}
}
