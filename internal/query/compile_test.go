package query

import (
	"math/rand"
	"slices"
	"testing"

	"indep/internal/attrset"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/infer"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/workload"
)

// referenceWindow is the fast-path window the slow way: every tuple of
// every scheme whose extension can determine x, extended by
// AcceptedRun.ExtendTuple (one tableau.FindValuation per attribute of the
// universe), X-total extensions projected onto x, then the selection
// applied to the finished window.
func referenceWindow(t *testing.T, s *schema.Schema, cover []independence.AcceptedRun, st *relation.State, x attrset.Set, where []Cond) *relation.Instance {
	t.Helper()
	out := relation.NewInstance(x)
	cols := x.Attrs()
	for l := range s.Rels {
		ar := &cover[l]
		if !x.SubsetOf(ar.Available()) {
			continue
		}
		for _, tu := range st.Insts[l].Rows() {
			ext, determined := ar.ExtendTuple(st, tu)
			if !x.SubsetOf(determined) {
				continue
			}
			proj := make(relation.Tuple, len(cols))
			for j, a := range cols {
				proj[j] = ext[a]
			}
			out.Add(proj)
		}
	}
	return postFilter(out, where)
}

// postFilter keeps the rows of a finished window that satisfy every
// condition, as windows were filtered before selections were pushed down.
func postFilter(in *relation.Instance, where []Cond) *relation.Instance {
	out := relation.NewInstance(in.Attrs)
	cols := in.Attrs.Attrs()
rows:
	for _, tu := range in.Rows() {
		for _, c := range where {
			for j, a := range cols {
				if a == c.Attr && tu[j] != c.Value {
					continue rows
				}
			}
		}
		out.Add(tu)
	}
	return out
}

// keyedShapes are independent schemas whose FDs are keys, connected, so
// that workload.FunctionalState fills them with joinable, satisfying states
// (on a disconnected schema the join dependency crosses its seeds): a
// star, a snowflake and a chain, whose calculations take one to three
// probe steps.
var keyedShapes = []struct{ schema, fds string }{
	{"F(A,B); D1(A,C,D); D2(B,E)", "A -> C D; B -> E"},
	{"F(A,B); D1(A,C); D11(C,G); D2(B,E)", "A -> C; C -> G; B -> E"},
	{"R1(A,B); R2(B,C); R3(C,D); R4(D,E)", "A -> B; B -> C; C -> D; D -> E"},
}

// drawCase draws one differential case: an independent schema (random from
// the T3 generator, a random star or chain, or a keyed shape), a state, a
// window and a selection. The state is locally satisfying unless
// unconstrained is set; unconstrained states are compared against the
// ExtendTuple reference only, since the chase rejects them.
func drawCase(r *rand.Rand) (s *schema.Schema, fds fd.List, st *relation.State, unconstrained bool) {
	for {
		keyed := false
		switch r.Intn(4) {
		case 0:
			s, fds = workload.Schema(r, workload.Config{
				Attrs: 4 + r.Intn(3), Schemes: 2 + r.Intn(2), SchemeMax: 3,
				FDs: 1 + r.Intn(3), LHSMax: 2,
			})
		case 1:
			s, fds = workload.Schema(r, workload.Config{
				Attrs: 5 + r.Intn(4), Schemes: 3 + r.Intn(2), FDs: 1 + r.Intn(4),
				LHSMax: 1, Embedded: true, Shape: workload.ShapeStar,
			})
		case 2:
			s, fds = workload.Schema(r, workload.Config{
				Attrs: 5 + r.Intn(4), SchemeMax: 2 + r.Intn(2), FDs: 1 + r.Intn(4),
				LHSMax: 1, Embedded: true, Shape: workload.ShapeChain,
			})
		default:
			k := keyedShapes[r.Intn(len(keyedShapes))]
			s = schema.MustParse(k.schema)
			fds = fd.MustParse(s.U, k.fds)
			keyed = true
		}
		res, err := independence.Decide(s, fds)
		if err != nil || !res.Independent {
			continue
		}
		switch {
		case r.Intn(3) == 0:
			st, unconstrained = randomState(r, s, 1+r.Intn(6), 3), true
		case keyed:
			st = workload.FunctionalState(r, s, 2+r.Intn(12), 3+r.Intn(6))
		default:
			st = workload.LocalState(r, s, fds, 1+r.Intn(4), 3, 30)
		}
		if st != nil {
			return s, fds, st, unconstrained
		}
	}
}

// randomState fills every relation with random tuples over a small domain,
// with no regard for the dependencies.
func randomState(r *rand.Rand, s *schema.Schema, perRel, domain int) *relation.State {
	st := relation.NewState(s)
	for i, rel := range s.Rels {
		for j := 0; j < perRel; j++ {
			tu := make(relation.Tuple, rel.Attrs.Len())
			for c := range tu {
				tu[c] = relation.Value(r.Intn(domain))
			}
			st.Insts[i].Add(tu)
		}
	}
	return st
}

// drawWindow draws a window: half the time a subset of one scheme's
// extension closure, so that some scheme contributes, otherwise any
// nonempty subset of the universe.
func drawWindow(r *rand.Rand, s *schema.Schema, runs []independence.AcceptedRun) attrset.Set {
	pool := s.U.All()
	if r.Intn(2) == 0 {
		pool = runs[r.Intn(len(runs))].Available()
	}
	attrs := pool.Attrs()
	var x attrset.Set
	for x.IsEmpty() {
		for _, a := range attrs {
			if r.Intn(2) == 0 {
				x.Add(a)
			}
		}
	}
	return x
}

// drawWhere draws up to two conditions on attributes of x. Values come from
// the unfiltered window's rows (so selections often keep something), from
// any tuple of the state, or are Unseen.
func drawWhere(r *rand.Rand, st *relation.State, x attrset.Set, window *relation.Instance) []Cond {
	var where []Cond
	xs := x.Attrs()
	rows := window.Rows()
	for n := r.Intn(3); n > 0; n-- {
		k := r.Intn(len(xs))
		c := Cond{Attr: xs[k], Value: Unseen}
		switch u := r.Intn(6); {
		case u < 3 && len(rows) > 0:
			c.Value = rows[r.Intn(len(rows))][k]
		case u < 5:
			for l, inst := range st.Insts {
				if j := slices.Index(st.Schema.Attrs(l).Attrs(), c.Attr); j >= 0 && inst.Len() > 0 {
					c.Value = inst.Rows()[r.Intn(inst.Len())][j]
					break
				}
			}
		}
		where = append(where, c)
	}
	return where
}

// checkCompiledCase draws one case and holds the compiled plan with pushed
// down selection against the ExtendTuple reference and, on satisfying
// states, against the chase with the selection applied afterwards.
func checkCompiledCase(t *testing.T, r *rand.Rand) {
	t.Helper()
	s, fds, st, unconstrained := drawCase(r)
	res, err := independence.Decide(s, fds)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]independence.AcceptedRun, len(s.Rels))
	for l := range s.Rels {
		ar, rej := independence.PrepareExtension(s, res.Cover, l)
		if rej != nil {
			t.Fatalf("%s: Loop rejected %s of an independent schema", s, s.Name(l))
		}
		runs[l] = *ar
	}
	ev := newEvaluator(t, s, fds)
	for k := 0; k < 4; k++ {
		x := drawWindow(r, s, runs)
		where := drawWhere(r, st, x, referenceWindow(t, s, runs, st, x, nil))
		got, err := ev.Select(st, x, where)
		if err != nil {
			t.Fatalf("%s: select [%s]: %v", s, s.U.Format(x, " "), err)
		}
		want := referenceWindow(t, s, runs, st, x, where)
		if !sameInstance(got.Rows, want) {
			t.Fatalf("%s | %s: window [%s] where %v over\n%s\ncompiled %v != ExtendTuple reference %v",
				s, fds.Format(s.U), s.U.Format(x, " "), where, st, got.Rows.Rows(), want.Rows())
		}
		if unconstrained || !infer.AllEmbedded(s, fds) {
			continue
		}
		chased := postFilter(oracleWindow(t, s, fds, st, x), where)
		if !sameInstance(got.Rows, chased) {
			t.Fatalf("%s | %s: window [%s] where %v over\n%s\ncompiled %v != chase %v",
				s, fds.Format(s.U), s.U.Format(x, " "), where, st, got.Rows.Rows(), chased.Rows())
		}
	}
}

// TestCompiledPlanMatchesReference is the differential test of the
// compiled extension plans and selection push-down.
func TestCompiledPlanMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 400; i++ {
		checkCompiledCase(t, r)
	}
}

// FuzzCompiledPlan drives the same differential check from a fuzzed seed.
func FuzzCompiledPlan(f *testing.F) {
	for _, seed := range []int64{1, 7, 16, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCompiledCase(t, rand.New(rand.NewSource(seed)))
	})
}

// TestSelectChasePathFilters covers selection on the chase fallback: the
// X-total projection is filtered, and an unseen value matches nothing.
func TestSelectChasePathFilters(t *testing.T) {
	s := schema.MustParse("AB(A,B); BC(B,C)")
	fds := fd.MustParse(s.U, "A -> C")
	ev := newEvaluator(t, s, fds)
	st := relation.NewState(s)
	st.AddNamed("AB", map[string]string{"A": "a1", "B": "b1"})
	st.AddNamed("AB", map[string]string{"A": "a2", "B": "b1"})
	st.AddNamed("BC", map[string]string{"B": "b1", "C": "c1"})
	x := s.U.Set("A", "C")
	a := s.U.MustIndex("A")
	for _, c := range []struct {
		where []Cond
		want  int
	}{
		{nil, 2},
		{[]Cond{{Attr: a, Value: st.Dict.Value("a2")}}, 1},
		{[]Cond{{Attr: a, Value: Unseen}}, 0},
	} {
		res, err := ev.Select(st, x, c.where)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fast || res.Rows.Len() != c.want {
			t.Fatalf("where %v: fast=%v rows %v, want %d chase rows", c.where, res.Fast, res.Rows.Rows(), c.want)
		}
	}
	if _, err := ev.Select(st, x, []Cond{{Attr: s.U.MustIndex("B"), Value: 0}}); err == nil {
		t.Fatal("a selection outside the window must be rejected")
	}
}
