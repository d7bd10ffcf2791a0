package schema

import (
	"testing"

	"indep/internal/attrset"
)

// FuzzParse asserts the schema parser never panics and that anything it
// accepts passes the structural validator (Parse promises a valid schema
// or an error, never a broken value).
func FuzzParse(f *testing.F) {
	f.Add("R1(A,B); R2(B,C)")
	f.Add("CT(C,T); CS(C,S); CHR(C,H,R)")
	f.Add("R(A)")
	f.Add("R1(A B C)\nR2(C D)")
	f.Add("  R1 ( A , B ) ;; R2(B)")
	f.Add("R1()")
	f.Add("(A)")
	f.Add("R1(A,B); R1(A)")
	f.Add("R)(")
	f.Add("R1(A,B")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Parse(%q) accepted an invalid schema: %v", src, verr)
		}
		if s.Size() == 0 {
			t.Fatalf("Parse(%q) accepted an empty schema", src)
		}
		for i := 0; i < s.Size(); i++ {
			if s.IndexOf(s.Name(i)) != i {
				t.Fatalf("Parse(%q): scheme %d not findable by name %q", src, i, s.Name(i))
			}
		}
	})
}

// FuzzComponents checks the bitset component merge against the reference
// union-find on arbitrary hypergraphs over 64 attributes: every three bytes
// of edges name the attributes of one hyperedge, and removed is the
// attribute mask deleted before the components are taken.
func FuzzComponents(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 2, 2, 3, 3}, uint64(0))
	f.Add([]byte{0, 1, 1, 1, 2, 2, 2, 3, 3}, uint64(1<<2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 5, 6, 0, 9, 9, 9}, uint64(1<<5|1<<0))
	f.Add([]byte{7}, ^uint64(0))
	f.Fuzz(func(t *testing.T, edges []byte, removed uint64) {
		var sets []attrset.Set
		for i := 0; i+2 < len(edges) && len(sets) < 64; i += 3 {
			sets = append(sets, attrset.Of(int(edges[i]%64), int(edges[i+1]%64), int(edges[i+2]%64)))
		}
		checkComponents(t, hypergraph(64, sets), attrset.Set{removed})
	})
}
