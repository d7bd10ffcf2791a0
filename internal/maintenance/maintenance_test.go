package maintenance

import (
	"errors"
	"math/rand"
	"testing"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/relation"
	"indep/internal/schema"
)

func TestGuardAcceptsAndRejects(t *testing.T) {
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	fds := fd.MustParse(s.U, "C -> T; C H -> R")
	res, err := independence.Decide(s, fds)
	if err != nil || !res.Independent {
		t.Fatal("Example 2 must be independent")
	}
	g := NewGuard(s, res.Cover)
	ct := s.IndexOf("CT")
	if err := g.Insert(ct, relation.Tuple{1, 10}); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(ct, relation.Tuple{2, 20}); err != nil {
		t.Fatal(err)
	}
	// Same course, same teacher: fine (duplicate-ish but consistent).
	if err := g.Insert(ct, relation.Tuple{1, 10}); err != nil {
		t.Fatal(err)
	}
	// Same course, different teacher: violates C→T.
	err = g.Insert(ct, relation.Tuple{1, 11})
	if !errors.Is(err, ErrViolation) {
		t.Fatalf("expected violation, got %v", err)
	}
	// The rejected tuple must not have corrupted the index.
	if err := g.Insert(ct, relation.Tuple{3, 30}); err != nil {
		t.Fatal(err)
	}
	if g.State().Insts[ct].Len() != 3 {
		t.Fatalf("state has %d tuples, want 3", g.State().Insts[ct].Len())
	}
}

func TestGuardCompositeFD(t *testing.T) {
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	fds := fd.MustParse(s.U, "C -> T; C H -> R")
	res, _ := independence.Decide(s, fds)
	g := NewGuard(s, res.Cover)
	chr := s.IndexOf("CHR")
	// Attribute order in CHR is C,H,R.
	if err := g.Insert(chr, relation.Tuple{1, 5, 100}); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(chr, relation.Tuple{1, 6, 101}); err != nil {
		t.Fatal(err) // different hour, different room: fine
	}
	err := g.Insert(chr, relation.Tuple{1, 5, 102})
	if !errors.Is(err, ErrViolation) {
		t.Fatalf("CH->R violation expected, got %v", err)
	}
}

func TestGuardAgreesWithChaseOracle(t *testing.T) {
	// For an independent schema, the guard's verdicts must coincide with
	// re-chasing the whole state on every insert.
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	fds := fd.MustParse(s.U, "C -> T; C H -> R")
	res, _ := independence.Decide(s, fds)
	g := NewGuard(s, res.Cover)
	m := NewChaseMaintainer(s, fds, false, chase.DefaultCaps)
	r := rand.New(rand.NewSource(11))
	agree := 0
	for i := 0; i < 300; i++ {
		scheme := r.Intn(s.Size())
		w := s.Attrs(scheme).Len()
		tu := make(relation.Tuple, w)
		for c := range tu {
			tu[c] = relation.Value(r.Intn(4))
		}
		ge := g.Insert(scheme, tu.Clone())
		ce := m.Insert(scheme, tu.Clone())
		if (ge == nil) != (ce == nil) {
			t.Fatalf("disagreement at insert %d into %s of %v: guard=%v chase=%v",
				i, s.Name(scheme), tu, ge, ce)
		}
		agree++
	}
	if agree != 300 {
		t.Fatal("loop exited early")
	}
}

func TestChaseMaintainerExample1(t *testing.T) {
	s := schema.MustParse("CD(C,D); CT(C,T); TD(T,D)")
	fds := fd.MustParse(s.U, "C -> D; C -> T; T -> D")
	m := NewChaseMaintainer(s, fds, false, chase.DefaultCaps)
	if err := m.Insert(s.IndexOf("CD"), relation.Tuple{1, 100}); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(s.IndexOf("CT"), relation.Tuple{1, 50}); err != nil {
		t.Fatal(err)
	}
	// TD's columns are (D,T) in universe order C,D,T. Teacher 50 in
	// department 101 contradicts course 1 being in department 100.
	err := m.Insert(s.IndexOf("TD"), relation.Tuple{101, 50})
	if !errors.Is(err, ErrViolation) {
		t.Fatalf("expected violation, got %v", err)
	}
	// Consistent department is fine.
	if err := m.Insert(s.IndexOf("TD"), relation.Tuple{100, 50}); err != nil {
		t.Fatal(err)
	}
}

// buildReductionInput makes a small universal relation and schema for the
// Theorem 1 construction.
func buildReductionInput() (*attrset.Universe, *relation.Instance, []attrset.Set, attrset.Set) {
	u := attrset.NewUniverse("X1", "X2", "X3")
	r := relation.NewInstance(u.All())
	r.Add(relation.Tuple{1, 2, 3})
	r.Add(relation.Tuple{4, 2, 5})
	r.Add(relation.Tuple{4, 6, 3})
	schemes := []attrset.Set{u.Set("X1", "X2"), u.Set("X2", "X3")}
	x := u.Set("X1", "X3")
	return u, r, schemes, x
}

func TestReductionBaseStateSatisfies(t *testing.T) {
	u, r, schemes, x := buildReductionInput()
	red, err := BuildReduction(u, r, schemes, x, relation.Tuple{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := chase.Satisfies(red.P, red.FDs, true, chase.DefaultCaps)
	if err != nil || !ok {
		t.Fatalf("Theorem 1 base state must satisfy Σ (ok=%v err=%v)", ok, err)
	}
}

func TestReductionDecidesJoinMembership(t *testing.T) {
	u, r, schemes, x := buildReductionInput()
	cases := []struct {
		t relation.Tuple
	}{
		{relation.Tuple{1, 3}}, // in the join: (1,2,3) directly
		{relation.Tuple{1, 5}}, // in the join: (1,2)⋈(2,5)
		{relation.Tuple{7, 3}}, // 7 never appears: not in the join
		{relation.Tuple{4, 3}}, // (4,2)⋈(2,3) or (4,6)⋈(6,3): in
	}
	for _, c := range cases {
		want := MemberOfJoin(r, schemes, x, c.t)
		red, err := BuildReduction(u, r, schemes, x, c.t)
		if err != nil {
			t.Fatal(err)
		}
		p2 := red.P.Clone()
		p2.Insts[red.Last].Add(red.Inserted)
		sat, err := chase.Satisfies(p2, red.FDs, true, chase.DefaultCaps)
		if err != nil {
			t.Fatal(err)
		}
		// Theorem 1: p' is satisfying iff t is NOT in the join.
		if sat != !want {
			t.Fatalf("reduction broken for t=%v: member=%v but p' satisfying=%v",
				c.t, want, sat)
		}
	}
}

func TestReductionRandomizedAgainstJoinOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 25; iter++ {
		u := attrset.NewUniverse("X1", "X2", "X3", "X4")
		r := relation.NewInstance(u.All())
		for i := 0; i < 4+rng.Intn(4); i++ {
			r.Add(relation.Tuple{
				relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)),
				relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)),
			})
		}
		schemes := []attrset.Set{u.Set("X1", "X2"), u.Set("X2", "X3"), u.Set("X3", "X4")}
		x := u.Set("X1", "X4")
		tu := relation.Tuple{relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3))}
		want := MemberOfJoin(r, schemes, x, tu)
		red, err := BuildReduction(u, r, schemes, x, tu)
		if err != nil {
			t.Fatal(err)
		}
		p2 := red.P.Clone()
		p2.Insts[red.Last].Add(red.Inserted)
		sat, err := chase.Satisfies(p2, red.FDs, true, chase.DefaultCaps)
		if err != nil {
			continue // budget; rare
		}
		if sat != !want {
			t.Fatalf("reduction mismatch: member=%v satisfying=%v", want, sat)
		}
	}
}

func TestGuardUnknownScheme(t *testing.T) {
	s := schema.MustParse("R(A,B)")
	g := NewGuard(s, nil)
	if err := g.Insert(5, relation.Tuple{1, 2}); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func TestGuardDeleteRefcounts(t *testing.T) {
	s := schema.MustParse("R(A,B,C)")
	fds := fd.MustParse(s.U, "A -> B")
	res, err := independence.Decide(s, fds)
	if err != nil || !res.Independent {
		t.Fatal("single-scheme schema must be independent")
	}
	g := NewGuard(s, res.Cover)
	// Two tuples witness the binding 1→10.
	if err := g.Insert(0, relation.Tuple{1, 10, 100}); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(0, relation.Tuple{1, 10, 101}); err != nil {
		t.Fatal(err)
	}
	// Duplicate insert must not inflate the refcount.
	if err := g.Insert(0, relation.Tuple{1, 10, 100}); err != nil {
		t.Fatal(err)
	}
	if ok, err := g.Delete(0, relation.Tuple{1, 10, 100}); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	// One witness remains: the binding must still be enforced.
	if err := g.Insert(0, relation.Tuple{1, 11, 102}); !errors.Is(err, ErrViolation) {
		t.Fatalf("want violation while a witness remains, got %v", err)
	}
	if ok, _ := g.Delete(0, relation.Tuple{1, 10, 101}); !ok {
		t.Fatal("delete of the second witness failed")
	}
	// No witnesses left: the binding is forgotten.
	if err := g.Insert(0, relation.Tuple{1, 11, 102}); err != nil {
		t.Fatalf("binding should be gone, got %v", err)
	}
	if ok, _ := g.Delete(0, relation.Tuple{9, 9, 9}); ok {
		t.Fatal("deleted an absent tuple")
	}
	if _, err := g.Delete(99, relation.Tuple{1}); err == nil {
		t.Fatal("want error for unknown scheme")
	}
}

func TestChaseMaintainerDelete(t *testing.T) {
	s := schema.MustParse("CD(C,D); CT(C,T); TD(T,D)")
	fds := fd.MustParse(s.U, "C -> D; C -> T; T -> D")
	m := NewChaseMaintainer(s, fds, false, chase.DefaultCaps)
	// The paper's anomaly: after CD and CT, the contradicting TD tuple is
	// rejected — but deleting CD makes it admissible.
	if err := m.Insert(0, relation.Tuple{1, 10}); err != nil { // CD(c,d)
		t.Fatal(err)
	}
	if err := m.Insert(1, relation.Tuple{1, 20}); err != nil { // CT(c,t)
		t.Fatal(err)
	}
	bad := relation.Tuple{11, 20} // TD stores (D,T): d'≠d with the same t
	if err := m.Insert(2, bad); !errors.Is(err, ErrViolation) {
		t.Fatalf("want violation, got %v", err)
	}
	if ok, err := m.Delete(0, relation.Tuple{1, 10}); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if err := m.Insert(2, bad); err != nil {
		t.Fatalf("after deleting the conflicting tuple, insert must pass: %v", err)
	}
	if m.State().TupleCount() != 2 {
		t.Fatalf("TupleCount = %d, want 2", m.State().TupleCount())
	}
}
