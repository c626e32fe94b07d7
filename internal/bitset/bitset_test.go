package bitset

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() || s.Count() != 0 || s.Len() != 130 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Has(i) {
			t.Fatalf("missing %d", i)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Fatal("spurious members")
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Fatal("remove failed")
	}
	got := s.Indices()
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Fatalf("indices = %v", got)
	}
}

func TestHasOutOfRange(t *testing.T) {
	s := New(10)
	if s.Has(-1) || s.Has(10) || s.Has(1000) {
		t.Fatal("out-of-range Has must be false")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10).Add(10)
}

func TestFullTrimsTail(t *testing.T) {
	s := Full(70)
	if s.Count() != 70 {
		t.Fatalf("Full(70).Count() = %d", s.Count())
	}
	if s.Has(70) {
		t.Fatal("element beyond universe")
	}
}

func TestMismatchedUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10).AndWith(New(20))
}

func TestSignatureDistinguishes(t *testing.T) {
	a := FromIndices(100, []int{1, 5, 9})
	b := FromIndices(100, []int{1, 5, 10})
	c := FromIndices(100, []int{1, 5, 9})
	if a.Signature() == b.Signature() {
		t.Fatal("different sets share a signature (unlikely collision)")
	}
	if a.Signature() != c.Signature() {
		t.Fatal("equal sets have different signatures")
	}
}

// refSignature is Signature as it was written before it was inlined: the
// standard library's FNV-1a fed each word as eight little-endian bytes.
func refSignature(s *Set) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range s.words {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestSignatureIsFNV1a pins the hash's value, not just its behaviour: core's
// ranking breaks its last tie on it, so it must stay hash/fnv's FNV-1a over
// the words — including the empty universe and sizes that leave a partial
// last word.
func TestSignatureIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 130, 1000, 8999} {
		for trial := 0; trial < 20; trial++ {
			s := New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					s.Add(i)
				}
			}
			if trial == 0 {
				s = Full(n)
			}
			if got, want := s.Signature(), refSignature(s); got != want {
				t.Fatalf("universe %d trial %d: Signature = %#x, hash/fnv = %#x", n, trial, got, want)
			}
		}
	}
}

// reference is a map-based model the property tests compare against.
type reference map[int]bool

func refFrom(idx []int) reference {
	r := reference{}
	for _, i := range idx {
		r[i] = true
	}
	return r
}

func (r reference) indices() []int {
	var out []int
	for i := range r {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func equalIdx(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const propUniverse = 200

func randIdx(rng *rand.Rand) []int {
	n := rng.Intn(40)
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(propUniverse)
	}
	return out
}

func TestPropertySetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		ia, ib := randIdx(rng), randIdx(rng)
		a, b := FromIndices(propUniverse, ia), FromIndices(propUniverse, ib)
		ra, rb := refFrom(ia), refFrom(ib)

		and := And(a, b)
		wantAnd := reference{}
		for i := range ra {
			if rb[i] {
				wantAnd[i] = true
			}
		}
		if !equalIdx(and.Indices(), wantAnd.indices()) {
			t.Fatalf("And mismatch: %v vs %v", and.Indices(), wantAnd.indices())
		}
		if and.Count() != AndCount(a, b) {
			t.Fatal("AndCount disagrees with And().Count()")
		}

		or := Or(a, b)
		wantOr := reference{}
		for i := range ra {
			wantOr[i] = true
		}
		for i := range rb {
			wantOr[i] = true
		}
		if !equalIdx(or.Indices(), wantOr.indices()) {
			t.Fatal("Or mismatch")
		}

		diff := AndNot(a, b)
		wantDiff := reference{}
		for i := range ra {
			if !rb[i] {
				wantDiff[i] = true
			}
		}
		if !equalIdx(diff.Indices(), wantDiff.indices()) {
			t.Fatal("AndNot mismatch")
		}

		if and.SubsetOf(a) != true || and.SubsetOf(b) != true {
			t.Fatal("intersection must be subset of operands")
		}
		if !a.SubsetOf(or) || !b.SubsetOf(or) {
			t.Fatal("operands must be subsets of union")
		}
	}
}

func TestQuickCloneIndependence(t *testing.T) {
	f := func(raw []uint16) bool {
		idx := make([]int, len(raw))
		for i, v := range raw {
			idx[i] = int(v) % propUniverse
		}
		a := FromIndices(propUniverse, idx)
		c := a.Clone()
		if !a.Equal(c) {
			return false
		}
		// Mutating the clone must not change the original.
		probe := (len(raw) * 13) % propUniverse
		before := a.Has(probe)
		c.Add(probe)
		if a.Has(probe) != before {
			return false
		}
		c.Remove(probe)
		if a.Has(probe) != before {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachMatchesIndices(t *testing.T) {
	s := FromIndices(propUniverse, []int{3, 64, 65, 127, 128, 199})
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if !equalIdx(got, s.Indices()) {
		t.Fatalf("ForEach %v != Indices %v", got, s.Indices())
	}
}

func BenchmarkAnd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := FromIndices(4096, randIdxN(rng, 500, 4096))
	y := FromIndices(4096, randIdxN(rng, 500, 4096))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Clone().AndWith(y)
	}
}

func randIdxN(rng *rand.Rand, n, universe int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(universe)
	}
	return out
}
