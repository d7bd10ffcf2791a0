// Package schema models relation schemes and database schemas over an
// attribute universe, including the schema hypergraph used when reasoning
// about the join dependency *D of a database schema.
package schema

import (
	"fmt"
	"strings"

	"indep/internal/attrset"
)

// Rel is a relation scheme: a named, nonempty subset of the universe.
type Rel struct {
	Name  string
	Attrs attrset.Set
}

// Schema is a database schema: a collection of relation schemes over a
// shared universe. The paper's join dependency *D is implicit: it is the
// join dependency whose components are exactly the schemes of the schema.
type Schema struct {
	U    *attrset.Universe
	Rels []Rel
}

// New builds a schema over u with the given relation schemes.
func New(u *attrset.Universe, rels ...Rel) *Schema {
	return &Schema{U: u, Rels: rels}
}

// NewRel is a convenience constructor for a relation scheme from names.
func NewRel(u *attrset.Universe, name string, attrs ...string) Rel {
	return Rel{Name: name, Attrs: u.Set(attrs...)}
}

// Validate checks the structural invariants a database schema must satisfy:
// at least one scheme, each scheme nonempty and inside the universe, scheme
// names unique, and the schemes covering the universe (so that *D is a join
// dependency over U, as the paper requires).
func (s *Schema) Validate() error {
	if s.U == nil {
		return fmt.Errorf("schema: nil universe")
	}
	if len(s.Rels) == 0 {
		return fmt.Errorf("schema: no relation schemes")
	}
	seen := make(map[string]bool, len(s.Rels))
	all := s.U.All()
	var covered attrset.Set
	for _, r := range s.Rels {
		if r.Name == "" {
			return fmt.Errorf("schema: relation scheme with empty name")
		}
		if seen[r.Name] {
			return fmt.Errorf("schema: duplicate relation scheme name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Attrs.IsEmpty() {
			return fmt.Errorf("schema: relation scheme %s is empty", r.Name)
		}
		if !r.Attrs.SubsetOf(all) {
			return fmt.Errorf("schema: relation scheme %s mentions attributes outside the universe", r.Name)
		}
		covered = covered.Union(r.Attrs)
	}
	if covered != all {
		return fmt.Errorf("schema: schemes do not cover the universe (missing %s)",
			s.U.Format(all.Diff(covered), " "))
	}
	return nil
}

// Size returns the number of relation schemes.
func (s *Schema) Size() int { return len(s.Rels) }

// Attrs returns the attribute set of scheme i.
func (s *Schema) Attrs(i int) attrset.Set { return s.Rels[i].Attrs }

// Name returns the name of scheme i.
func (s *Schema) Name(i int) string { return s.Rels[i].Name }

// IndexOf returns the index of the named scheme, or -1.
func (s *Schema) IndexOf(name string) int {
	for i, r := range s.Rels {
		if r.Name == name {
			return i
		}
	}
	return -1
}

// SchemesEmbedding returns the indices of all schemes R with x ⊆ R.
func (s *Schema) SchemesEmbedding(x attrset.Set) []int {
	var out []int
	for i, r := range s.Rels {
		if x.SubsetOf(r.Attrs) {
			out = append(out, i)
		}
	}
	return out
}

// Embeds reports whether some scheme contains x.
func (s *Schema) Embeds(x attrset.Set) bool {
	for _, r := range s.Rels {
		if x.SubsetOf(r.Attrs) {
			return true
		}
	}
	return false
}

// String renders the schema as "R1(A B) R2(B C)".
func (s *Schema) String() string {
	parts := make([]string, len(s.Rels))
	for i, r := range s.Rels {
		parts[i] = fmt.Sprintf("%s(%s)", r.Name, s.U.Format(r.Attrs, " "))
	}
	return strings.Join(parts, " ")
}

// Components returns the connected components of the hypergraph whose
// hyperedges are the scheme attribute sets with the attributes of `removed`
// deleted. Two attributes are connected when some pruned scheme contains
// both. The components are appended to buf[:0], at most one per scheme, in
// no particular order; attributes of `removed` (and attributes outside every
// scheme) lie in none of them. With cap(buf) ≥ |D| it does not allocate.
//
// Each pruned hyperedge absorbs every component found so far that it
// meets; the components stay pairwise disjoint, so a merge is a few word
// operations on bitsets.
//
// This is the combinatorial core of the polynomial FD-implication test for
// F ∪ {*D} (see internal/infer): after merging a closed set M of attributes
// in the two-row chase, the rows derivable with the JD-rule for *D are
// exactly the vectors constant on each component of {R_i − M}.
func (s *Schema) Components(removed attrset.Set, buf []attrset.Set) []attrset.Set {
	comps := buf[:0]
	for _, r := range s.Rels {
		c := r.Attrs.Diff(removed)
		if c.IsEmpty() {
			continue
		}
		for j := 0; j < len(comps); {
			if !comps[j].Intersects(c) {
				j++
				continue
			}
			c = c.Union(comps[j])
			last := len(comps) - 1
			comps[j] = comps[last]
			comps = comps[:last]
		}
		comps = append(comps, c)
	}
	return comps
}

// ComponentOf returns the connected component containing attribute a in the
// hypergraph {R_i − removed}, or the empty set if a was removed or appears
// in no scheme.
func (s *Schema) ComponentOf(a int, removed attrset.Set) attrset.Set {
	for _, c := range s.Components(removed, nil) {
		if c.Has(a) {
			return c
		}
	}
	return attrset.Set{}
}

// Parse builds a schema from a compact textual form:
//
//	R1(A,B,C); R2(C,D)
//
// Scheme separators may be ';' or newline; attribute separators ',' or
// whitespace. Attributes are added to the universe in order of first
// appearance. Parse returns the universe alongside the schema.
func Parse(src string) (*Schema, error) {
	u := attrset.NewUniverse()
	s := &Schema{U: u}
	decls := strings.FieldsFunc(src, func(r rune) bool { return r == ';' || r == '\n' })
	for _, d := range decls {
		d = strings.TrimSpace(d)
		if d == "" {
			continue
		}
		open := strings.IndexByte(d, '(')
		close := strings.LastIndexByte(d, ')')
		if open <= 0 || close != len(d)-1 {
			return nil, fmt.Errorf("schema: cannot parse scheme declaration %q", d)
		}
		name := strings.TrimSpace(d[:open])
		var attrs attrset.Set
		fields := strings.FieldsFunc(d[open+1:close], func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		})
		if len(fields) == 0 {
			return nil, fmt.Errorf("schema: scheme %q has no attributes", name)
		}
		for _, f := range fields {
			attrs.Add(u.Add(f))
		}
		s.Rels = append(s.Rels, Rel{Name: name, Attrs: attrs})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustParse is Parse that panics on error; intended for tests and examples.
func MustParse(src string) *Schema {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// SortedComponentList returns the components of {R_i − removed} in
// deterministic order; useful for printing and tests.
func (s *Schema) SortedComponentList(removed attrset.Set) []attrset.Set {
	out := s.Components(removed, nil)
	attrset.SortSets(out)
	return out
}
