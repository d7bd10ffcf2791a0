package schema

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"indep/internal/attrset"
)

// refComponents is the map-based union-find that Components replaced, kept
// as the reference the bitset merge is checked against: it maps each
// attribute of {R_i − removed} to its component.
func refComponents(s *Schema, removed attrset.Set) map[int]attrset.Set {
	parent := make(map[int]int)
	var find func(a int) int
	find = func(a int) int {
		for parent[a] != a {
			parent[a] = parent[parent[a]]
			a = parent[a]
		}
		return a
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, r := range s.Rels {
		pruned := r.Attrs.Diff(removed)
		first := pruned.First()
		if first < 0 {
			continue
		}
		pruned.ForEach(func(a int) bool {
			if _, ok := parent[a]; !ok {
				parent[a] = a
			}
			union(first, a)
			return true
		})
	}
	comps := make(map[int]attrset.Set)
	for a := range parent {
		r := find(a)
		c := comps[r]
		c.Add(a)
		comps[r] = c
	}
	out := make(map[int]attrset.Set, len(parent))
	for _, c := range comps {
		c.ForEach(func(a int) bool {
			out[a] = c
			return true
		})
	}
	return out
}

// checkComponents asserts that Components, SortedComponentList and
// ComponentOf agree with the reference union-find on {R_i − removed}, and
// returns the sorted component list.
func checkComponents(t testing.TB, s *Schema, removed attrset.Set) []attrset.Set {
	t.Helper()
	ref := refComponents(s, removed)
	seen := make(map[attrset.Set]bool)
	var want []attrset.Set
	for _, c := range ref {
		if !seen[c] {
			seen[c] = true
			want = append(want, c)
		}
	}
	attrset.SortSets(want)

	got := s.Components(removed, nil)
	if len(got) > len(s.Rels) {
		t.Fatalf("%d components from %d schemes", len(got), len(s.Rels))
	}
	attrset.SortSets(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s minus %v: components %v, reference %v", s, removed.Attrs(), got, want)
	}
	if sorted := s.SortedComponentList(removed); !reflect.DeepEqual(sorted, want) {
		t.Fatalf("SortedComponentList = %v, reference %v", sorted, want)
	}
	for a := 0; a < s.U.Size(); a++ {
		if got := s.ComponentOf(a, removed); got != ref[a] {
			t.Fatalf("ComponentOf(%d) = %v, reference %v", a, got.Attrs(), ref[a].Attrs())
		}
	}
	return want
}

// hypergraph builds a schema over n attributes whose schemes are the given
// edges; it skips Validate, so edges may be empty or leave attributes
// uncovered.
func hypergraph(n int, edges []attrset.Set) *Schema {
	u := attrset.NewUniverse()
	for i := 0; i < n; i++ {
		u.Add(fmt.Sprintf("A%d", i))
	}
	s := &Schema{U: u}
	for i, e := range edges {
		s.Rels = append(s.Rels, Rel{Name: fmt.Sprintf("R%d", i), Attrs: e})
	}
	return s
}

func TestComponentsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + r.Intn(attrset.MaxAttrs)
		edges := make([]attrset.Set, 1+r.Intn(40))
		for i := range edges {
			for k := r.Intn(6); k >= 0; k-- {
				edges[i].Add(r.Intn(n))
			}
		}
		var removed attrset.Set
		p := r.Float64()
		for a := 0; a < n; a++ {
			if r.Float64() < p/2 {
				removed.Add(a)
			}
		}
		checkComponents(t, hypergraph(n, edges), removed)
	}
}

func TestComponentsNoAllocs(t *testing.T) {
	s := MustParse("R1(A,B); R2(B,C); R3(C,D); R4(E,F); R5(F,A)")
	removed := s.U.Set("C")
	buf := make([]attrset.Set, 0, s.Size())
	if n := testing.AllocsPerRun(100, func() { buf = s.Components(removed, buf) }); n != 0 {
		t.Fatalf("Components allocated %.0f times per call", n)
	}
}
