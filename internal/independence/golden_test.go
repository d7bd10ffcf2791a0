package independence

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"indep/internal/fd"
	"indep/internal/schema"
	"indep/internal/workload"
)

// goldenPath records Decide's output on decisionFixtures: verdict, reason,
// cover (order included), failing FDs, rejection, witness kind and witness
// state. It was written by the map-based implementation the bitset
// components, memoized closures and sort-once tableau union replaced, so
// any change of verdict, cover or witness shows up as a diff.
const goldenPath = "testdata/decide_golden.txt"

type decisionFixture struct {
	name string
	s    *schema.Schema
	fds  fd.List
}

// decisionFixtures returns the paper's examples, the test suite's named
// schemas, and seeded random instances of every workload shape, with both
// embedded and unembedded FDs.
func decisionFixtures() []decisionFixture {
	var out []decisionFixture
	add := func(name string, s *schema.Schema, fds fd.List) {
		out = append(out, decisionFixture{name, s, fds})
	}
	for _, c := range []struct{ name, schema, fds string }{
		{"single-scheme", "R(A,B,C)", "A -> B; B -> C"},
		{"duplicate-schemes", "R1(A,B); R2(A,B)", "A -> B"},
		{"embedded-foreign-fd", "CT(C,T); CTX(C,T,X)", "C -> T"},
		{"no-fds", "R1(A,B); R2(B,C); R3(C,A)", ""},
		{"keyed-star", "FACT(O,P,C); PROD(P,PN); CUST(C,CN)", "O -> P C; P -> PN; C -> CN"},
		{"daemon-star", "FACT(A,B,C,D); DIM1(A,E,F,G,H,I); DIM2(B,J,K,L,M,N); DIM3(C,O,P,Q,R,S); DIM4(D,T,U,V,W,X,Y)",
			"A -> E F G H I; B -> J K L M N; C -> O P Q R S; D -> T U V W X Y"},
	} {
		s := schema.MustParse(c.schema)
		add(c.name, s, fd.MustParse(s.U, c.fds))
	}
	for _, c := range []struct {
		name string
		gen  func() (*schema.Schema, fd.List)
	}{
		{"example1", workload.Example1},
		{"example2", workload.Example2},
		{"example2-broken", workload.Example2Broken},
		{"example3", workload.Example3},
		{"university", workload.University},
	} {
		s, fds := c.gen()
		add(c.name, s, fds)
	}
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 60; i++ {
		s, fds := randInstance(r, 3+r.Intn(4))
		add(fmt.Sprintf("rand-instance-%d", i), s, fds)
	}
	shapes := []struct {
		name  string
		shape workload.Shape
	}{{"random", workload.ShapeRandom}, {"chain", workload.ShapeChain}, {"star", workload.ShapeStar}}
	for _, sh := range shapes {
		for _, embedded := range []bool{true, false} {
			for i := 0; i < 20; i++ {
				s, fds := workload.Schema(r, workload.Config{
					Attrs: 4 + r.Intn(6), Schemes: 2 + r.Intn(3), SchemeMax: 2 + r.Intn(3),
					FDs: 1 + r.Intn(5), LHSMax: 1 + r.Intn(2), Embedded: embedded, Shape: sh.shape,
				})
				add(fmt.Sprintf("%s-embedded=%t-%d", sh.name, embedded, i), s, fds)
			}
		}
	}
	return out
}

func renderDecision(f decisionFixture) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s | %s\n", f.name, f.s, f.fds.Format(f.s.U))
	res, err := Decide(f.s, f.fds)
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
		return b.String()
	}
	fmt.Fprintf(&b, "independent=%t reason=%s\n", res.Independent, res.Reason)
	fmt.Fprintf(&b, "cover: %s\n", res.Cover.Format(f.s))
	fmt.Fprintf(&b, "failing: %s\n", res.FailingFDs.Format(f.s.U))
	if res.Rejection != nil {
		fmt.Fprintf(&b, "rejection: %s\n", res.Rejection)
	}
	fmt.Fprintf(&b, "witness %q:\n", res.WitnessKind)
	if res.Witness != nil {
		b.WriteString(res.Witness.String())
	}
	return b.String()
}

func TestDecideMatchesGolden(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(data), "== ")[1:]
	fixtures := decisionFixtures()
	if len(want) != len(fixtures) {
		t.Fatalf("golden record has %d decisions, fixtures %d", len(want), len(fixtures))
	}
	for i, f := range fixtures {
		got, w := renderDecision(f), "== "+want[i]
		if got != w {
			t.Errorf("decision changed:\n--- golden\n%s--- now\n%s", w, got)
		}
	}
}
