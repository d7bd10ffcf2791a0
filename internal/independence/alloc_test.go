package independence

import (
	"testing"

	"indep/internal/fd"
	"indep/internal/schema"
)

// TestDecideStarAllocs pins the cost of deciding the 25-attribute star
// schema every indepd serves in the repo benchmark: Decide runs on the
// daemon's start-up path, before /readyz. The map-based components and
// per-closure FD splitting it replaced took 3,847 allocations.
func TestDecideStarAllocs(t *testing.T) {
	s := schema.MustParse("FACT(A,B,C,D); DIM1(A,E,F,G,H,I); DIM2(B,J,K,L,M,N); DIM3(C,O,P,Q,R,S); DIM4(D,T,U,V,W,X,Y)")
	fds := fd.MustParse(s.U, "A -> E F G H I; B -> J K L M N; C -> O P Q R S; D -> T U V W X Y")
	const budget = 200
	n := testing.AllocsPerRun(20, func() {
		if res, err := Decide(s, fds); err != nil || !res.Independent {
			t.Fatalf("star schema must be independent: %v", err)
		}
	})
	t.Logf("Decide(star): %.0f allocs", n)
	if n > budget {
		t.Fatalf("Decide(star) allocated %.0f times, budget %d", n, budget)
	}
}
