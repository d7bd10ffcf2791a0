package schema

import (
	"reflect"
	"strings"
	"testing"

	"indep/internal/attrset"
)

func TestParseBasic(t *testing.T) {
	s, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 3 {
		t.Fatalf("Size = %d", s.Size())
	}
	if s.U.Size() != 5 {
		t.Fatalf("universe size = %d", s.U.Size())
	}
	if got := s.String(); got != "CT(C T) CS(C S) CHR(C H R)" {
		t.Errorf("String = %q", got)
	}
	if s.IndexOf("CS") != 1 || s.IndexOf("ZZ") != -1 {
		t.Error("IndexOf wrong")
	}
}

func TestParseWhitespaceSeparators(t *testing.T) {
	s, err := Parse("R1(A B)\nR2(B\tC)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2 || s.U.Size() != 3 {
		t.Fatalf("parsed wrong: %v", s)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"R1",           // no parens
		"(A,B)",        // empty name
		"R1()",         // no attributes
		"",             // nothing
		"R1(A); R1(B)", // duplicate name
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestValidateCoverage(t *testing.T) {
	u := attrset.NewUniverse("A", "B", "C")
	s := New(u, NewRel(u, "R1", "A", "B"))
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "cover") {
		t.Fatalf("expected coverage error, got %v", err)
	}
	s = New(u, NewRel(u, "R1", "A", "B"), NewRel(u, "R2", "B", "C"))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemesEmbedding(t *testing.T) {
	s := MustParse("R1(A,B); R2(B,C); R3(A,B,C)")
	u := s.U
	got := s.SchemesEmbedding(u.Set("B"))
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("embedding(B) = %v", got)
	}
	got = s.SchemesEmbedding(u.Set("A", "C"))
	if !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("embedding(AC) = %v", got)
	}
	if !s.Embeds(u.Set("A", "B")) || s.Embeds(u.All().With(200)) {
		t.Error("Embeds wrong")
	}
}

func TestComponentsNoRemoval(t *testing.T) {
	s := MustParse("R1(A,B); R2(B,C); R3(D,E)")
	u := s.U
	comps := checkComponents(t, s, attrset.Set{})
	want := []attrset.Set{u.Set("D", "E"), u.Set("A", "B", "C")}
	attrset.SortSets(want)
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("components = %v, want %v", comps, want)
	}
}

func TestComponentsWithRemoval(t *testing.T) {
	// Removing B disconnects A from C in {AB, BC}.
	s := MustParse("R1(A,B); R2(B,C)")
	u := s.U
	removed := u.Set("B")
	checkComponents(t, s, removed)
	if got := s.ComponentOf(u.MustIndex("A"), removed); got != u.Set("A") {
		t.Errorf("component of A = %v", u.Format(got, ""))
	}
	if got := s.ComponentOf(u.MustIndex("C"), removed); got != u.Set("C") {
		t.Errorf("component of C = %v", u.Format(got, ""))
	}
	// Removed attribute has empty component.
	if got := s.ComponentOf(u.MustIndex("B"), removed); !got.IsEmpty() {
		t.Errorf("component of removed B = %v", u.Format(got, ""))
	}
}

func TestComponentsChain(t *testing.T) {
	// {AB, BC, CD}: removing C splits into {A,B} and {D}.
	s := MustParse("R1(A,B); R2(B,C); R3(C,D)")
	u := s.U
	removed := u.Set("C")
	checkComponents(t, s, removed)
	if got := s.ComponentOf(u.MustIndex("A"), removed); got != u.Set("A", "B") {
		t.Errorf("component of A = %v", u.Format(got, ""))
	}
	if got := s.ComponentOf(u.MustIndex("D"), removed); got != u.Set("D") {
		t.Errorf("component of D = %v", u.Format(got, ""))
	}
}

func TestComponentsAllRemoved(t *testing.T) {
	s := MustParse("R1(A,B)")
	if comps := checkComponents(t, s, s.U.All()); len(comps) != 0 {
		t.Errorf("expected no components, got %v", comps)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("garbage")
}
