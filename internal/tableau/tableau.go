// Package tableau implements the tagged tableaux of the paper's Section 4.
//
// A tagged tableau over universe U is an instance of U ∪ {Tag}: each column
// holds either the column's unique distinguished variable (dv) or a
// nondistinguished variable (ndv), and the tag names a relation scheme. The
// tableaux the independence algorithm constructs have two structural
// invariants (the paper's Observation): every row has dvs in a locally
// closed set of attributes, and no ndv occurs twice. A row is therefore
// fully described by its tag and its dv-set, and a tableau by a set of such
// rows — which is the representation used here.
//
// The weakness preorder: T ≤ T' iff there is a symbol mapping, identity on
// tags and dvs, taking every row of T to a row of T'. Under the invariants
// this reduces to: for every row (i, S) of T there is a row (i, S') of T'
// with S ⊆ S'.
package tableau

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"indep/internal/attrset"
	"indep/internal/relation"
	"indep/internal/schema"
)

// Row is a tableau row: its tag (a scheme index) and the set of columns
// holding distinguished variables. All remaining columns hold unique
// nondistinguished variables.
type Row struct {
	Tag int
	DVs attrset.Set
}

// T is a tagged tableau: a duplicate-free set of rows.
type T []Row

// Add returns the tableau with the row added (no-op if present).
func (t T) Add(r Row) T {
	for _, x := range t {
		if x == r {
			return t
		}
	}
	out := make(T, len(t)+1)
	copy(out, t)
	out[len(t)] = r
	out.sort()
	return out
}

// Union returns the union of two tableaux, in the canonical row order Add
// keeps. The rows are appended, sorted and deduplicated once, instead of
// one copy-and-sort per row.
func (t T) Union(o T) T {
	if len(o) == 0 {
		return t
	}
	out := make(T, 0, len(t)+len(o))
	out = append(append(out, t...), o...)
	out.sort()
	return slices.Compact(out)
}

func (t T) sort() {
	slices.SortFunc(t, func(a, b Row) int {
		switch {
		case a.Tag != b.Tag:
			return cmp.Compare(a.Tag, b.Tag)
		case a.DVs == b.DVs:
			return 0
		case attrset.Less(a.DVs, b.DVs):
			return -1
		}
		return 1
	})
}

// Has reports whether the row is present.
func (t T) Has(r Row) bool {
	for _, x := range t {
		if x == r {
			return true
		}
	}
	return false
}

// Leq reports T ≤ T': every row of t maps to a row of o with the same tag
// and a superset dv-set.
func Leq(t, o T) bool {
	for _, r := range t {
		ok := false
		for _, x := range o {
			if x.Tag == r.Tag && r.DVs.SubsetOf(x.DVs) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Lt reports T < T' (strictly weaker).
func Lt(t, o T) bool { return Leq(t, o) && !Leq(o, t) }

// Equiv reports T ≡ T'.
func Equiv(t, o T) bool { return Leq(t, o) && Leq(o, t) }

// DVsIn returns the set of columns in which some row of t has a dv.
func (t T) DVsIn() attrset.Set {
	var s attrset.Set
	for _, r := range t {
		s = s.Union(r.DVs)
	}
	return s
}

// Format renders the tableau with scheme names, e.g. "{CT:C T} {TD:T D}".
func (t T) Format(s *schema.Schema) string {
	parts := make([]string, len(t))
	for i, r := range t {
		parts[i] = fmt.Sprintf("{%s:%s}", s.Name(r.Tag), s.U.Format(r.DVs, " "))
	}
	return strings.Join(parts, " ")
}

// Valuation is an assignment of values to distinguished variables (keyed by
// column) witnessing that a tableau maps into a state.
type Valuation map[int]relation.Value

// FindValuation searches for a valuation from the tableau to the state that
// agrees with the partial assignment anchor (column → required dv value):
// a choice of values for the dvs, extending anchor, such that every row
// (i, S) matches some tuple of the state's i-th relation on the columns
// S ∩ R_i. Nondistinguished variables are unconstrained and need no
// assignment. The search backtracks over rows (tableaux here are tiny);
// each row's candidates come from a hash probe on its already-bound dv
// columns (relation.Instance.MatchingRows), so on an immutable state —
// e.g. the engine snapshots the window-query evaluator reads — a probe is
// O(1) instead of a scan of the relation, and candidate rows are read in
// place from the column arenas without materializing tuples.
func FindValuation(t T, st *relation.State, anchor Valuation) (Valuation, bool) {
	assign := make(Valuation, len(anchor))
	for k, v := range anchor {
		assign[k] = v
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(t) {
			return true
		}
		row := t[i]
		inst := st.Insts[row.Tag]
		cols := st.Schema.Attrs(row.Tag).Attrs()
		// Split the row's dv columns into bound ones (they form the probe
		// key) and free ones (bound by the candidate tuple).
		var probeCols []int
		var probeVals []relation.Value
		type free struct{ j, a int }
		var frees []free
		for j, a := range cols {
			if !row.DVs.Has(a) {
				continue
			}
			if v, bound := assign[a]; bound {
				probeCols = append(probeCols, j)
				probeVals = append(probeVals, v)
			} else {
				frees = append(frees, free{j: j, a: a})
			}
		}
		for _, s := range inst.MatchingRows(probeCols, probeVals) {
			for _, f := range frees {
				assign[f.a] = inst.At(s, f.j)
			}
			if rec(i + 1) {
				return true
			}
			for _, f := range frees {
				delete(assign, f.a)
			}
		}
		return false
	}
	if rec(0) {
		return assign, true
	}
	return nil, false
}
