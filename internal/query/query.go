// Package query evaluates window queries — the paper's X-total projections
// of the representative instance — over immutable database states.
//
// The representative instance of a state p is the chase of the padded
// universal relation I(p); the window [X] for an attribute set X is the
// projection onto X of its X-total rows (rows whose X columns all resolved
// to constants). Windows are the natural query semantics for weak-instance
// databases: they answer "what does the state, plus everything the
// dependencies force, say about X?" without inventing values.
//
// The payoff of independence is that windows are computable
// relation-by-relation. For an independent schema, each accepted Loop run
// leaves behind extension data (independence.AcceptedRun): any tuple of r_l
// extends to a universal tuple whose determined attributes are computed by
// tiny tableau valuations (Theorem 5), so the window is the union, over
// relations, of the X-total tuple extensions — local joins, no global
// chase. For any other schema the Evaluator falls back to chasing the
// padded state, which is the honest exponential-worst-case cost the paper's
// Theorem 1 imposes.
//
// Plans are cached per attribute set: deciding which relations can
// contribute to a window, and compiling the minimal calculations of X's
// attributes into fixed probe steps (compile.go), happens once per distinct
// X, so repeated windows skip straight to evaluation. Equality selections
// are pushed into evaluation (Select): anchor relations are probed on their
// selected columns, and extensions that derive another value for a
// selected attribute are dropped as soon as it is computed.
// Evaluators are safe for concurrent use; evaluation never mutates the
// state it reads, so callers may share one immutable snapshot across any
// number of concurrent Window calls.
package query

import (
	"fmt"
	"sync"
	"sync/atomic"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/infer"
	"indep/internal/relation"
	"indep/internal/schema"
)

// Evaluator answers window queries for one schema. Create with
// NewEvaluator; all methods are safe for concurrent use.
type Evaluator struct {
	s    *schema.Schema
	fds  fd.List
	caps chase.Caps

	// Fast path (independent schemas): cover is the embedded cover the
	// decision procedure extracted; runs[l] holds scheme l's extension data,
	// built lazily on first use and immutable afterwards.
	fast  bool
	cover infer.AssignedList

	// Chase path: jd reports whether the fallback chase must apply the
	// join-dependency rule (false when every FD is embedded, per Lemma 4).
	jd bool

	mu    sync.Mutex
	runs  []*independence.AcceptedRun
	plans map[attrset.Set]*Plan

	queries    atomic.Uint64
	planHits   atomic.Uint64
	fastEvals  atomic.Uint64
	chaseEvals atomic.Uint64
}

// Stats is a point-in-time view of an evaluator's counters.
type Stats struct {
	Queries    uint64 // Window calls
	PlanHits   uint64 // queries answered from the plan cache
	FastEvals  uint64 // windows evaluated relation-by-relation
	ChaseEvals uint64 // windows evaluated by the fallback chase
}

// NewEvaluator builds an evaluator from an independence analysis result
// (the same Result the engine and the public Analysis are built from).
func NewEvaluator(s *schema.Schema, fds fd.List, res *independence.Result, caps chase.Caps) *Evaluator {
	ev := &Evaluator{
		s:     s,
		fds:   fds,
		caps:  caps,
		plans: make(map[attrset.Set]*Plan),
	}
	if res.Independent {
		ev.fast = true
		ev.cover = res.Cover
		ev.runs = make([]*independence.AcceptedRun, s.Size())
	} else {
		ev.jd = !infer.AllEmbedded(s, fds)
	}
	return ev
}

// Fast reports whether windows evaluate relation-by-relation (independent
// schema) rather than through the serialized chase.
func (ev *Evaluator) Fast() bool { return ev.fast }

// Stats returns the evaluator's operation counters.
func (ev *Evaluator) Stats() Stats {
	return Stats{
		Queries:    ev.queries.Load(),
		PlanHits:   ev.planHits.Load(),
		FastEvals:  ev.fastEvals.Load(),
		ChaseEvals: ev.chaseEvals.Load(),
	}
}

// Plan is a compiled window query for one attribute set: which relations
// can contribute tuples and, for the fast path, their extension data. Plans
// are immutable and cached by the evaluator, so repeated windows over the
// same attribute set skip the closure and join-order computation.
type Plan struct {
	// X is the window attribute set the plan answers.
	X attrset.Set
	// Fast reports whether the plan evaluates relation-by-relation.
	Fast bool
	// Schemes lists the relations that can contribute: scheme l is relevant
	// iff every attribute of X is available in R_l⁺ (its extensions can
	// determine all of X). Chase plans leave it nil — the chase always
	// consults the whole state.
	Schemes []int

	// scans[i] is Schemes[i]'s compiled contribution; depth is the most
	// steps any of their searches takes.
	scans []scan
	depth int
}

// Consults returns every scheme an evaluation of the plan may read: the
// contributing schemes plus the relations their compiled steps probe, which
// are the tags of the minimal calculations of X's attributes only. Chase
// plans return nil — the chase always consults the whole state. The result
// is sorted and duplicate-free; it is the gather set a cluster router must
// fetch before evaluating the window away from the data.
func (p *Plan) Consults() []int {
	if !p.Fast {
		return nil
	}
	var seen attrset.Set
	for _, sc := range p.scans {
		seen.Add(sc.l)
		for _, se := range sc.searches {
			for _, st := range se.steps {
				seen.Add(st.tag)
			}
		}
	}
	return seen.Attrs()
}

// run returns scheme l's extension data, building it on first use. For an
// independent schema The Loop accepts every scheme, so a rejection here is
// impossible by Theorem 2; it is reported as an error rather than a panic
// because the evaluator may outlive bugs elsewhere.
func (ev *Evaluator) run(l int) (*independence.AcceptedRun, error) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if ev.runs[l] == nil {
		run, rej := independence.PrepareExtension(ev.s, ev.cover, l)
		if rej != nil {
			return nil, fmt.Errorf("query: Loop rejected scheme %s of an independent schema: %v",
				ev.s.Name(l), rej)
		}
		ev.runs[l] = run
	}
	return ev.runs[l], nil
}

// MaxCachedPlans bounds the plan cache. Attribute sets come straight from
// clients (GET /v1/window), so an unbounded cache would let a scan of
// distinct subsets grow the daemon's memory without limit; past the cap,
// new attribute sets are still answered, just re-planned per query.
const MaxCachedPlans = 4096

// Plan compiles (or fetches from cache) the plan for the window [x]. The
// boolean reports a cache hit.
func (ev *Evaluator) Plan(x attrset.Set) (*Plan, bool, error) {
	if x.IsEmpty() {
		return nil, false, fmt.Errorf("query: empty window attribute set")
	}
	if !x.SubsetOf(ev.s.U.All()) {
		return nil, false, fmt.Errorf("query: window attributes outside the universe")
	}
	ev.mu.Lock()
	if p, ok := ev.plans[x]; ok {
		ev.mu.Unlock()
		ev.planHits.Add(1)
		return p, true, nil
	}
	ev.mu.Unlock()

	p := &Plan{X: x, Fast: ev.fast}
	if ev.fast {
		for l := range ev.s.Rels {
			run, err := ev.run(l)
			if err != nil {
				return nil, false, err
			}
			if !x.SubsetOf(run.Available()) {
				continue // no tuple of r_l can be X-total in its extension
			}
			sc := compileScan(ev.s, run, x)
			p.Schemes = append(p.Schemes, l)
			p.scans = append(p.scans, sc)
			p.depth = max(p.depth, sc.depth())
		}
	}
	ev.mu.Lock()
	if prev, ok := ev.plans[x]; ok { // raced with another planner
		p = prev
	} else if len(ev.plans) < MaxCachedPlans {
		ev.plans[x] = p
	}
	ev.mu.Unlock()
	return p, false, nil
}

// Result is the outcome of one window evaluation.
type Result struct {
	// X is the window attribute set.
	X attrset.Set
	// Rows is the window: an instance over X holding the X-total projection
	// of the representative instance.
	Rows *relation.Instance
	// Fast reports relation-by-relation evaluation (no chase).
	Fast bool
	// PlanCached reports that the plan came from the cache.
	PlanCached bool
	// Plan is the compiled plan the evaluation executed, for EXPLAIN.
	Plan *Plan

	// visited[i] is the number of anchor rows the fast path visited for
	// Plan.Schemes[i], after selection probes.
	visited []int
}

// Cond is one equality selection of a window: attribute Attr must equal
// Value.
type Cond struct {
	Attr  int
	Value relation.Value
}

// Unseen is the value a condition carries for a name the evaluated state's
// dictionary has never interned. No state holds it, so it matches nothing.
const Unseen relation.Value = -1

// Resolve turns selections by value name (attribute → name) into
// conditions against the dictionary of the state they will be evaluated
// over. Names the dictionary lacks become Unseen.
func Resolve(d *relation.Dict, where map[int]string) []Cond {
	if len(where) == 0 {
		return nil
	}
	conds := make([]Cond, 0, len(where))
	for a, name := range where {
		v, ok := d.Lookup(name)
		if !ok {
			v = Unseen
		}
		conds = append(conds, Cond{Attr: a, Value: v})
	}
	return conds
}

// selection is a window's conditions by attribute: on holds the selected
// attributes and want[a] the value attribute a must equal. none reports that
// no row can satisfy them: an Unseen value, or two conditions on one
// attribute with different values.
type selection struct {
	on   attrset.Set
	want []relation.Value
	none bool
}

// newSelection validates the conditions against the window x.
func newSelection(u *attrset.Universe, x attrset.Set, where []Cond) (*selection, error) {
	sel := &selection{}
	if len(where) == 0 {
		return sel, nil
	}
	sel.want = make([]relation.Value, u.Size())
	for _, c := range where {
		if !x.Has(c.Attr) {
			return nil, fmt.Errorf("query: selection on an attribute outside the window")
		}
		if c.Value == Unseen || (sel.on.Has(c.Attr) && sel.want[c.Attr] != c.Value) {
			sel.none = true
		}
		sel.on.Add(c.Attr)
		sel.want[c.Attr] = c.Value
	}
	return sel, nil
}

// filter returns the rows of in that satisfy the selection.
func (sel *selection) filter(in *relation.Instance) *relation.Instance {
	if sel.on.IsEmpty() {
		return in
	}
	out := relation.NewInstance(in.Attrs)
	if sel.none {
		return out
	}
	cols := in.Attrs.Attrs()
	var row relation.Tuple
	for _, s := range in.LiveRows() {
		row = in.AppendRow(row[:0], s)
		ok := true
		for j, a := range cols {
			if sel.on.Has(a) && row[j] != sel.want[a] {
				ok = false
				break
			}
		}
		if ok {
			out.Add(row)
		}
	}
	return out
}

// Window computes the window [x] over the state. The state must be
// immutable for the duration of the call (engine snapshots are); it is
// never mutated. For a non-independent schema the fallback chase can
// exhaust its budget (chase.ErrBudget) or, if the state does not satisfy
// the dependencies, report the contradiction — maintained states never do.
func (ev *Evaluator) Window(st *relation.State, x attrset.Set) (*Result, error) {
	return ev.Select(st, x, nil)
}

// Select computes the rows of the window [x] that satisfy every condition
// (each on an attribute of x). On the fast path the conditions drive the
// evaluation: anchor relations are probed on their selected columns, and an
// extension is dropped once a selected attribute it derives differs. The
// chase path filters its X-total projection. The state must be immutable
// for the duration of the call, as for Window.
func (ev *Evaluator) Select(st *relation.State, x attrset.Set, where []Cond) (*Result, error) {
	ev.queries.Add(1)
	plan, cached, err := ev.Plan(x)
	if err != nil {
		return nil, err
	}
	sel, err := newSelection(ev.s.U, x, where)
	if err != nil {
		return nil, err
	}
	res := &Result{X: x, Fast: plan.Fast, PlanCached: cached, Plan: plan}
	if plan.Fast {
		ev.fastEvals.Add(1)
		res.Rows, res.visited = evalFast(plan, st, sel)
		return res, nil
	}
	ev.chaseEvals.Add(1)
	rows, err := ev.evalChase(st, x)
	if err != nil {
		return nil, err
	}
	res.Rows = sel.filter(rows)
	return res, nil
}

// RelScan is one relation an executed plan consulted, with the number of
// tuples it scanned: on the fast path the anchor rows visited after
// selection probes, on the chase path the whole relation.
type RelScan struct {
	Relation string
	Rows     int
}

// Explain describes the executed plan of one window evaluation against the
// state it ran over: the chosen mode, whether the plan came from the cache,
// which relations contributed (with the anchor rows each visited), and — on
// the fast path — which relations the planner pruned because the window is
// not a subset of their extension closure (Available()).
type Explain struct {
	Mode       string // "fast" (Theorem 5 extension joins) or "chase"
	PlanCached bool
	Relations  []RelScan
	Pruned     []string
}

// Explain reconstructs the executed plan of res over st. The chase mode
// consults the whole padded state, so every relation is listed and nothing
// is pruned.
func (ev *Evaluator) Explain(res *Result, st *relation.State) *Explain {
	ex := &Explain{PlanCached: res.PlanCached}
	if res.Fast {
		ex.Mode = "fast"
		member := make([]bool, ev.s.Size())
		for i, l := range res.Plan.Schemes {
			member[l] = true
			ex.Relations = append(ex.Relations, RelScan{Relation: ev.s.Name(l), Rows: res.visited[i]})
		}
		for l := 0; l < ev.s.Size(); l++ {
			if !member[l] {
				ex.Pruned = append(ex.Pruned, ev.s.Name(l))
			}
		}
		return ex
	}
	ex.Mode = "chase"
	for l := 0; l < ev.s.Size(); l++ {
		ex.Relations = append(ex.Relations, RelScan{Relation: ev.s.Name(l), Rows: st.Insts[l].Len()})
	}
	return ex
}

// evalChase is the general window: chase the padded state to the
// representative instance, then take the X-total projection.
func (ev *Evaluator) evalChase(st *relation.State, x attrset.Set) (*relation.Instance, error) {
	e := chase.NewEngine(ev.s.U)
	e.PadState(st)
	var jdSchema *schema.Schema
	if ev.jd {
		jdSchema = ev.s
	}
	if err := e.Chase(ev.fds, jdSchema, ev.caps); err != nil {
		return nil, err
	}
	return e.TotalProjection(x), nil
}
