package maintenance

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/relation"
	"indep/internal/schema"
)

func example2Guard(t testing.TB) (*schema.Schema, *Guard) {
	t.Helper()
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	fds := fd.MustParse(s.U, "C -> T; C H -> R")
	res, err := independence.Decide(s, fds)
	if err != nil || !res.Independent {
		t.Fatal("Example 2 must be independent")
	}
	return s, NewGuard(s, res.Cover)
}

// The binary-key promise for the fast maintainer: the verify phase builds
// no keys, so duplicate inserts and rejections are allocation-free, and a
// fresh accepted insert allocates only the instance's stored clone.
func TestGuardInsertReportSteadyStateAllocs(t *testing.T) {
	s, g := example2Guard(t)
	ct := s.IndexOf("CT")
	for i := 0; i < 512; i++ {
		if err := g.Insert(ct, relation.Tuple{relation.Value(i), relation.Value(i + 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	dup := relation.Tuple{5, 1005}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := g.InsertReport(ct, dup); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("duplicate InsertReport allocates %v per run", n)
	}
	// A violating insert is also allocation-free: the violation error is
	// precomputed per (FD, scheme) at guard construction.
	bad := relation.Tuple{5, 9999}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := g.InsertReport(ct, bad); err == nil {
			t.Fatal("want violation")
		}
	}); n != 0 {
		t.Errorf("violating InsertReport allocates %v per run", n)
	}
	// Steady-state insert/delete cycling reuses freed arena slots: the only
	// steady allocation is the instance's clone of the admitted tuple.
	cyc := relation.Tuple{100000, 101000}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := g.InsertReport(ct, cyc); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Delete(ct, cyc); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("insert/delete cycle allocates %v per run (want ≤ 2: the stored clone)", n)
	}
}

// refGuard reimplements the seed's string-keyed FD index — fmt-built "%d|"
// keys, rhs compared as strings — as the reference semantics for the
// randomized cross-check.
type refGuard struct {
	s   *schema.Schema
	st  *relation.State
	fds [][]refFD
}

type refFD struct {
	f                fd.FD
	lhsCols, rhsCols []int
	index            map[string]*refEntry
}

type refEntry struct {
	rhs string
	n   int
}

func refKey(t relation.Tuple, cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		fmt.Fprintf(&b, "%d|", int64(t[c]))
	}
	return b.String()
}

func newRefGuard(s *schema.Schema, g *Guard) *refGuard {
	r := &refGuard{s: s, st: relation.NewState(s), fds: make([][]refFD, len(s.Rels))}
	for i, gfs := range g.fds {
		for _, gf := range gfs {
			r.fds[i] = append(r.fds[i], refFD{
				f: gf.f, lhsCols: gf.lhsCols, rhsCols: gf.rhsCols,
				index: make(map[string]*refEntry),
			})
		}
	}
	return r
}

func (g *refGuard) insert(scheme int, t relation.Tuple) (bool, bool) {
	fds := g.fds[scheme]
	keys := make([][2]string, len(fds))
	for j, gf := range fds {
		lk, rk := refKey(t, gf.lhsCols), refKey(t, gf.rhsCols)
		if prev, ok := gf.index[lk]; ok && prev.rhs != rk {
			return false, false
		}
		keys[j] = [2]string{lk, rk}
	}
	if !g.st.Insts[scheme].Add(t) {
		return false, true
	}
	for j, gf := range fds {
		if e, ok := gf.index[keys[j][0]]; ok {
			e.n++
		} else {
			gf.index[keys[j][0]] = &refEntry{rhs: keys[j][1], n: 1}
		}
	}
	return true, true
}

func (g *refGuard) delete(scheme int, t relation.Tuple) bool {
	if !g.st.Insts[scheme].Remove(t) {
		return false
	}
	for _, gf := range g.fds[scheme] {
		lk := refKey(t, gf.lhsCols)
		if e, ok := gf.index[lk]; ok {
			if e.n--; e.n == 0 {
				delete(gf.index, lk)
			}
		}
	}
	return true
}

// TestGuardMatchesStringKeyedReference drives identical random insert and
// delete sequences through the binary-keyed Guard and the seed's
// string-keyed implementation: every accept/reject/added verdict must
// agree, on every scheme, across collisions, duplicates, violations, and
// unwound deletes.
func TestGuardMatchesStringKeyedReference(t *testing.T) {
	r := rand.New(rand.NewSource(1982))
	for trial := 0; trial < 10; trial++ {
		s, g := example2Guard(t)
		ref := newRefGuard(s, g)
		for step := 0; step < 3000; step++ {
			scheme := r.Intn(len(s.Rels))
			w := s.Attrs(scheme).Len()
			tu := make(relation.Tuple, w)
			for c := range tu {
				tu[c] = relation.Value(r.Intn(8)) // small domain: plenty of FD conflicts
			}
			if r.Intn(4) == 0 {
				got, _ := g.Delete(scheme, tu)
				if want := ref.delete(scheme, tu); got != want {
					t.Fatalf("trial %d step %d: Delete(%d, %v) = %v, reference %v",
						trial, step, scheme, tu, got, want)
				}
				continue
			}
			added, err := g.InsertReport(scheme, tu)
			wantAdded, wantOK := ref.insert(scheme, tu)
			if (err == nil) != wantOK || added != wantAdded {
				t.Fatalf("trial %d step %d: InsertReport(%d, %v) = (%v, %v), reference (%v, ok=%v)",
					trial, step, scheme, tu, added, err, wantAdded, wantOK)
			}
		}
		// Both maintainers must have converged to the same state.
		for i := range s.Rels {
			if g.State().Insts[i].Len() != ref.st.Insts[i].Len() {
				t.Fatalf("trial %d: scheme %d sizes diverge: %d vs %d",
					trial, i, g.State().Insts[i].Len(), ref.st.Insts[i].Len())
			}
			for _, tu := range ref.st.Insts[i].Rows() {
				if !g.State().Insts[i].Has(tu) {
					t.Fatalf("trial %d: scheme %d missing %v", trial, i, tu)
				}
			}
		}
	}
}

// TestChaseMaintainerMatchesCloneAndChase drives identical random sequences
// through the incremental ChaseMaintainer and the seed's semantics — clone
// the state, add the tuple, re-chase from scratch — and requires identical
// accept/reject verdicts, with deletes interleaved to force engine
// rebuilds.
func TestChaseMaintainerMatchesCloneAndChase(t *testing.T) {
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	fds := fd.MustParse(s.U, "C -> T; C H -> R")
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		m := NewChaseMaintainer(s, fds, false, chase.DefaultCaps)
		oracle := relation.NewState(s)
		for step := 0; step < 250; step++ {
			scheme := r.Intn(len(s.Rels))
			w := s.Attrs(scheme).Len()
			tu := make(relation.Tuple, w)
			for c := range tu {
				tu[c] = relation.Value(r.Intn(5))
			}
			if r.Intn(5) == 0 {
				got, err := m.Delete(scheme, tu)
				if err != nil {
					t.Fatal(err)
				}
				if want := oracle.Insts[scheme].Remove(tu); got != want {
					t.Fatalf("trial %d step %d: Delete diverged", trial, step)
				}
				continue
			}
			added, err := m.InsertReport(scheme, tu)
			trialState := oracle.Clone()
			grew := trialState.Insts[scheme].Add(tu)
			wantOK, oerr := chase.Satisfies(trialState, fds, false, chase.DefaultCaps)
			if oerr != nil {
				t.Fatal(oerr)
			}
			if (err == nil) != wantOK {
				t.Fatalf("trial %d step %d: insert(%d, %v) err=%v, oracle ok=%v",
					trial, step, scheme, tu, err, wantOK)
			}
			if err == nil {
				if added != grew {
					t.Fatalf("trial %d step %d: added=%v, oracle grew=%v", trial, step, added, grew)
				}
				oracle.Insts[scheme].Add(tu)
			}
		}
	}
}

// TestGuardFDAllocBytesPerEntry pins the live heap one FD index entry
// costs: its table slot, reference count and witness block (here one lhs
// and one rhs value); about 43 bytes at this size, where the table has
// just doubled. The Go map and chained entries it replaced cost 49.7 bytes
// per entry at the same size.
func TestGuardFDAllocBytesPerEntry(t *testing.T) {
	const n = 100_000
	s := schema.MustParse("R(A,B)")
	res, err := independence.Decide(s, fd.MustParse(s.U, "A -> B"))
	if err != nil || !res.Independent {
		t.Fatal("R(A,B) with A -> B must be independent")
	}
	gf := &NewGuard(s, res.Cover).fds[0][0]
	tuple := make(relation.Tuple, 2)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i := 0; i < n; i++ {
		tuple[0], tuple[1] = relation.Value(i), relation.Value(i%1000)
		gf.insertEntry(relation.HashCols(tuple, gf.lhsCols), tuple)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := float64(ms.HeapAlloc-before) / n
	runtime.KeepAlive(gf)
	t.Logf("guard FD index: %.1f live bytes per entry", per)
	if per > 46 {
		t.Fatalf("guard FD index holds %.1f bytes per entry, budget 46", per)
	}
}
