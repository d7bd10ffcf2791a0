// Package infer implements Section 3 of the paper: reasoning about the
// functional dependencies implied by Σ = F ∪ {*D}, where *D is the join
// dependency of the database schema.
//
// Three layers:
//
//  1. Closure computes cl_Σ(X) in polynomial time. The paper appeals to
//     [MSY] for FD implication from FDs and JDs; here the two-row chase is
//     solved in closed form. After a set M of columns has been merged, the
//     rows derivable with the JD-rule for *D are exactly the ±-vectors that
//     are constant on each connected component of the hypergraph
//     {R_i − M}: every hyperedge lies inside one component, so any
//     component-constant vector projects into an existing row on each R_i,
//     and conversely a derivable row must be monochromatic on every
//     hyperedge and hence on every component. An FD Y→B can therefore fire
//     (merging B) iff B ∉ M and the component of B avoids Y − M. Iterating
//     to a fixpoint yields cl_Σ(X) with M initialised to X.
//
//  2. ClosureEmbedded computes cl_{G|D}(X), the closure of X under the
//     implied FDs that are embedded in some scheme, by the paper's Lemma 5
//     iteration: repeatedly add R_i ∩ cl_Σ(R_i ∩ Z) for every scheme.
//
//  3. CoverEmbeds tests the paper's Theorem 2 condition (1) — D embeds a
//     cover of G — via Lemma 2 (check A ∈ cl_{G|D}(X) for every X→A in F),
//     and ExtractCover produces the embedded cover H with |H| ≤ |F|·|U|.
package infer

import (
	"fmt"

	"indep/internal/attrset"
	"indep/internal/fd"
	"indep/internal/schema"
)

// Closure returns cl_Σ(X) for Σ = fds ∪ {*D}: all attributes A such that
// Σ ⊨ X → A. Polynomial in |U|·|F|.
func Closure(s *schema.Schema, fds fd.List, x attrset.Set) attrset.Set {
	return newCloser(s, fds).closure(x)
}

// Implies reports whether fds ∪ {*D} ⊨ f.
func Implies(s *schema.Schema, fds fd.List, f fd.FD) bool {
	return f.RHS.SubsetOf(Closure(s, fds, f.LHS))
}

// closer computes cl_Σ closures for one (schema, F) pair. F is split once,
// the component buffer is reused across fixpoint rounds, and closures are
// remembered by their input set: the Lemma 5 iteration asks for the same
// cl_Σ(R_i ∩ Z) for every FD of F.
type closer struct {
	s     *schema.Schema
	split fd.List
	comps []attrset.Set
	memo  map[attrset.Set]attrset.Set
}

func newCloser(s *schema.Schema, fds fd.List) *closer {
	return &closer{
		s:     s,
		split: fds.Split(),
		comps: make([]attrset.Set, 0, len(s.Rels)),
		memo:  make(map[attrset.Set]attrset.Set),
	}
}

func (c *closer) closure(x attrset.Set) attrset.Set {
	if m, ok := c.memo[x]; ok {
		return m
	}
	m := x
	for changed := true; changed; {
		changed = false
		c.comps = c.s.Components(m, c.comps)
		for _, f := range c.split {
			b := f.RHS.First()
			if m.Has(b) {
				continue
			}
			// Using components computed for a smaller M is sound: components
			// only get finer as M grows, so a firing justified by stale
			// components is justified by fresh ones too. Completeness comes
			// from the outer fixpoint loop.
			if lhs := f.LHS.Diff(m); lhs.IsEmpty() || !c.componentOf(b).Intersects(lhs) {
				m.Add(b)
				changed = true
			}
		}
	}
	c.memo[x] = m
	return m
}

// componentOf returns the component of the last Components call that holds
// attribute a, or the empty set.
func (c *closer) componentOf(a int) attrset.Set {
	for _, comp := range c.comps {
		if comp.Has(a) {
			return comp
		}
	}
	return attrset.Set{}
}

// EmbeddedStep records one productive application of the Lemma 5 iteration:
// the implied embedded FD (R_i ∩ Z) → (R_i ∩ cl_Σ(R_i ∩ Z)) contributed the
// attributes Added.
type EmbeddedStep struct {
	Scheme int
	FD     fd.FD
	Added  attrset.Set
}

// ClosureEmbedded computes cl_{G|D}(X): the closure of X under the set G|D
// of FDs that are implied by Σ and embedded in some scheme of D. The trace
// of productive steps supports ExtractCover.
func ClosureEmbedded(s *schema.Schema, fds fd.List, x attrset.Set) (attrset.Set, []EmbeddedStep) {
	return newCloser(s, fds).embedded(x)
}

func (c *closer) embedded(x attrset.Set) (attrset.Set, []EmbeddedStep) {
	z := x
	var steps []EmbeddedStep
	for changed := true; changed; {
		changed = false
		for i, r := range c.s.Rels {
			lhs := r.Attrs.Intersect(z)
			rhs := r.Attrs.Intersect(c.closure(lhs))
			add := rhs.Diff(z)
			if !add.IsEmpty() {
				steps = append(steps, EmbeddedStep{
					Scheme: i,
					FD:     fd.FD{LHS: lhs, RHS: rhs},
					Added:  add,
				})
				z = z.Union(add)
				changed = true
			}
		}
	}
	return z, steps
}

// CoverEmbeds tests Theorem 2 condition (1): does D embed a cover of the
// FDs G implied by Σ = fds ∪ {*D}? By Lemma 2 it suffices that every FD of
// fds follows from the embedded implied FDs. The failing FDs (if any) are
// returned split to single-attribute right-hand sides.
func CoverEmbeds(s *schema.Schema, fds fd.List) (bool, fd.List) {
	_, ok, failing := ExtractCover(s, fds)
	return ok, failing
}

// AllEmbedded reports whether every FD of fds is embedded in some scheme of
// s. By the paper's Lemma 4 the join-dependency chase rule is redundant for
// embedded FD sets, so callers use this to decide whether satisfaction and
// maintenance checks need the JD rule (and pay its exponential worst case).
func AllEmbedded(s *schema.Schema, fds fd.List) bool {
	for _, f := range fds {
		if !s.Embeds(f.Attrs()) {
			return false
		}
	}
	return true
}

// Assigned is an FD embedded in (and assigned to) a particular scheme: the
// paper's F_i decomposition of an embedded cover.
type Assigned struct {
	fd.FD
	Scheme int
}

// AssignedList is an embedded cover F = ∪F_i with every FD carrying its
// scheme assignment.
type AssignedList []Assigned

// List strips the scheme assignments.
func (al AssignedList) List() fd.List {
	out := make(fd.List, len(al))
	for i, a := range al {
		out[i] = a.FD
	}
	return out
}

// ForScheme returns the F_i for scheme i.
func (al AssignedList) ForScheme(i int) fd.List {
	var out fd.List
	for _, a := range al {
		if a.Scheme == i {
			out = append(out, a.FD)
		}
	}
	return out
}

// NotInScheme returns F − F_i.
func (al AssignedList) NotInScheme(i int) fd.List {
	var out fd.List
	for _, a := range al {
		if a.Scheme != i {
			out = append(out, a.FD)
		}
	}
	return out
}

// Format renders the assigned list with scheme names.
func (al AssignedList) Format(s *schema.Schema) string {
	out := ""
	for i, a := range al {
		if i > 0 {
			out += "; "
		}
		out += fmt.Sprintf("%s@%s", a.FD.Format(s.U), s.Name(a.Scheme))
	}
	return out
}

// ExtractCover runs the Section 3 algorithm to completion: it verifies
// cover-embedding and, when it holds, returns the embedded cover H of G
// assembled from the FDs (R_i ∩ Y) → (R_i ∩ cl_Σ(R_i ∩ Y)) that fired in
// the closure computations, each assigned to its scheme. Per the paper,
// |H| ≤ |F|·|U|. When cover-embedding fails it returns ok=false along with
// the failing FDs.
func ExtractCover(s *schema.Schema, fds fd.List) (cover AssignedList, ok bool, failing fd.List) {
	type key struct {
		scheme int
		lhs    attrset.Set
	}
	seen := make(map[key]bool)
	c := newCloser(s, fds)
	for _, f := range c.split {
		closed, steps := c.embedded(f.LHS)
		if !f.RHS.SubsetOf(closed) {
			failing = append(failing, f)
			continue
		}
		for _, st := range steps {
			k := key{st.Scheme, st.FD.LHS}
			if !seen[k] {
				seen[k] = true
				cover = append(cover, Assigned{FD: st.FD, Scheme: st.Scheme})
			}
		}
	}
	if len(failing) > 0 {
		return nil, false, failing
	}
	return cover, true, nil
}

// AssignEmbedded assigns each FD of an already-embedded list to the first
// scheme that embeds it. It fails if some FD is not embedded in any scheme.
// Per the paper's footnote the choice of scheme for multiply-embedded FDs
// does not affect the independence verdict.
func AssignEmbedded(s *schema.Schema, fds fd.List) (AssignedList, error) {
	var out AssignedList
	for _, f := range fds {
		homes := s.SchemesEmbedding(f.Attrs())
		if len(homes) == 0 {
			return nil, fmt.Errorf("infer: FD %s is not embedded in any scheme", f.Format(s.U))
		}
		out = append(out, Assigned{FD: f, Scheme: homes[0]})
	}
	return out, nil
}
