package query

import (
	"slices"

	"indep/internal/attrset"
	"indep/internal/independence"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/tableau"
)

// Compiled extensions. For an independent schema a tuple t of r_l extends
// to a universal tuple whose A value, for an available A ∉ R_l, is read off
// a valuation of the minimal calculation T(A) that agrees with t (Theorem
// 5). tableau.FindValuation finds one by matching T(A)'s rows in order, each
// against the relation its tag names, probing on the row's distinguished
// columns bound so far and binding the rest. Which columns are bound at each
// row does not depend on t: the anchor binds exactly R_l, and every matched
// row binds its distinguished columns. So each T(A) a window needs compiles,
// once per window X, into a fixed list of probe steps, and evaluation is a
// backtracking loop over step indexes on one slot array. It visits the same
// candidate rows in the same order as FindValuation, so it finds the same
// valuations, without building a map per tuple and attribute.

// step matches one tableau row: it probes relation tag on the column
// positions probe, whose values come from the slots from, then copies the
// row's other distinguished columns bind into the slots to. Slots are
// universe attribute indexes.
type step struct {
	tag         int
	probe, from []int
	bind, to    []int
}

// search is one compiled minimal calculation, shared by every window
// attribute with the same T(A); outs lists the window positions it
// determines, reading the slot named by from.
type search struct {
	steps []step
	outs  []outCol
}

// outCol fills window position k from from: an anchor column position in a
// scan's keep list, a slot in a search's outs.
type outCol struct{ k, from int }

// scan is one contributing scheme's share of a window: its anchor relation
// r_l, whose column j binds slot anchor[j]; the anchor columns copied into
// the window (keep); and the searches that determine the window's other
// attributes. A scheme with X ⊆ R_l has no searches: its share is π_X(r_l).
type scan struct {
	l        int
	anchor   []int
	keep     []outCol
	searches []search
}

// compileScan compiles scheme ar.Scheme()'s contribution to the window x,
// which must lie within ar.Available(). Attributes of x with equal T(A)
// share one search. A search always binds its attributes: The Loop makes A
// available with T(A) = T(Y) for an l.h.s. Y of some R_i with A ∈ Y*, and
// T(Y) holds the row tagged R_i whose distinguished columns are Y* ⊆ R_i.
func compileScan(s *schema.Schema, ar *independence.AcceptedRun, x attrset.Set) scan {
	rl := s.Attrs(ar.Scheme())
	sc := scan{l: ar.Scheme(), anchor: rl.Attrs()}
	var tabs []tableau.T // tabs[i] is the calculation sc.searches[i] compiles
	for k, a := range x.Attrs() {
		if rl.Has(a) {
			sc.keep = append(sc.keep, outCol{k: k, from: slices.Index(sc.anchor, a)})
			continue
		}
		t := ar.Calculation(a)
		i := slices.IndexFunc(tabs, func(u tableau.T) bool { return slices.Equal(u, t) })
		if i < 0 {
			i = len(tabs)
			tabs = append(tabs, t)
			sc.searches = append(sc.searches, compileSearch(s, rl, t))
		}
		sc.searches[i].outs = append(sc.searches[i].outs, outCol{k: k, from: a})
	}
	return sc
}

// compileSearch turns tableau t into probe steps for an anchor binding the
// attributes rl, in t's row order (FindValuation's).
func compileSearch(s *schema.Schema, rl attrset.Set, t tableau.T) search {
	bound := rl
	var se search
	for _, row := range t {
		st := step{tag: row.Tag}
		ri := s.Attrs(row.Tag)
		for j, c := range ri.Attrs() {
			switch {
			case !row.DVs.Has(c):
			case bound.Has(c):
				st.probe = append(st.probe, j)
				st.from = append(st.from, c)
			default:
				st.bind = append(st.bind, j)
				st.to = append(st.to, c)
			}
		}
		bound = bound.Union(row.DVs.Intersect(ri))
		se.steps = append(se.steps, st)
	}
	return se
}

// depth returns the most steps any of the scan's searches takes.
func (sc *scan) depth() int {
	d := 0
	for _, se := range sc.searches {
		d = max(d, len(se.steps))
	}
	return d
}

// extender is the scratch of one fast evaluation, shared by its scans:
// slot values by attribute, the probe key buffer, the window row being
// built, and each search depth's candidate rows and position in them.
type extender struct {
	st    *relation.State
	sel   *selection
	slot  []relation.Value
	key   []relation.Value
	cols  []int
	proj  relation.Tuple
	cands [][]int32
	pos   []int
}

// evalFast is the independent-schema window: the union over the plan's
// scans of the X-total extensions of their anchor tuples (Theorem 5). Each
// anchor relation is probed on its selected columns, and a tuple is dropped
// as soon as a selected derived attribute comes out with another value. It
// returns the window and, per scan, the anchor rows visited.
func evalFast(p *Plan, st *relation.State, sel *selection) (*relation.Instance, []int) {
	out := relation.NewInstance(p.X)
	visited := make([]int, len(p.scans))
	if sel.none {
		return out, visited
	}
	e := &extender{
		st:    st,
		sel:   sel,
		slot:  make([]relation.Value, st.Schema.U.Size()),
		proj:  make(relation.Tuple, p.X.Len()),
		cands: make([][]int32, p.depth),
		pos:   make([]int, p.depth),
	}
	for i := range p.scans {
		visited[i] = e.scan(&p.scans[i], out)
	}
	return out, visited
}

// scan adds scheme sc.l's share of the window to out and returns the number
// of anchor rows it visited.
func (e *extender) scan(sc *scan, out *relation.Instance) int {
	inst := e.st.Insts[sc.l]
	e.cols, e.key = e.cols[:0], e.key[:0]
	for j, a := range sc.anchor {
		if e.sel.on.Has(a) {
			e.cols = append(e.cols, j)
			e.key = append(e.key, e.sel.want[a])
		}
	}
	rows := inst.MatchingRows(e.cols, e.key)
	for _, s := range rows {
		for _, o := range sc.keep {
			e.proj[o.k] = inst.At(s, o.from)
		}
		if len(sc.searches) > 0 {
			for j, a := range sc.anchor {
				e.slot[a] = inst.At(s, j)
			}
			if !e.extend(sc.searches) {
				continue
			}
		}
		out.Add(e.proj)
	}
	return len(rows)
}

// extend runs the searches for the anchor bound in the slots, filling the
// window row. It reports false as soon as a search finds no valuation or
// determines a selected attribute with a value other than the selected one.
func (e *extender) extend(searches []search) bool {
	for i := range searches {
		se := &searches[i]
		if !e.find(se.steps) {
			return false
		}
		for _, o := range se.outs {
			v := e.slot[o.from]
			if e.sel.on.Has(o.from) && v != e.sel.want[o.from] {
				return false
			}
			e.proj[o.k] = v
		}
	}
	return true
}

// find searches for a valuation of the compiled tableau agreeing with the
// slots bound so far, backtracking by step index; on success the slots hold
// it. A search has at least one step (compileScan).
func (e *extender) find(steps []step) bool {
	d := 0
	e.cands[0], e.pos[0] = e.probe(&steps[0]), 0
	for {
		if e.pos[d] == len(e.cands[d]) {
			if d == 0 {
				return false
			}
			d--
			e.pos[d]++
			continue
		}
		st := &steps[d]
		inst, s := e.st.Insts[st.tag], e.cands[d][e.pos[d]]
		for i, c := range st.bind {
			e.slot[st.to[i]] = inst.At(s, c)
		}
		if d++; d == len(steps) {
			return true
		}
		e.cands[d], e.pos[d] = e.probe(&steps[d]), 0
	}
}

// probe returns the rows of the step's relation agreeing with the slots on
// its probe columns.
func (e *extender) probe(st *step) []int32 {
	e.key = e.key[:0]
	for _, a := range st.from {
		e.key = append(e.key, e.slot[a])
	}
	return e.st.Insts[st.tag].MatchingRows(st.probe, e.key)
}
