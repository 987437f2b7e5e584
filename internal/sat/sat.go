// Package sat implements a small conflict-driven clause-learning (CDCL)
// satisfiability solver.
//
// The solver is the substrate for the SAT-based dependency computation of
// Soeken et al. (HVC 2016), which the secure-data-flow method uses to
// distinguish functional from only-structural dependencies in circuit
// logic. It supports incremental solving under assumptions, two-watched
// literal propagation with blocking literals, first-UIP clause learning
// with LBD (glue) scoring, glucose-style clause-database reduction,
// activity-based branching with phase saving, Luby or LBD-EMA adaptive
// restarts, and assumption-prefix trail reuse between consecutive Solve
// calls (the incremental cofactor-query pattern of internal/dep keeps
// thousands of closely related queries from re-propagating a shared
// assumption prefix from scratch).
package sat

import (
	"errors"
	"fmt"
	"sort"
)

// Var is a propositional variable. Valid variables are >= 1.
type Var int32

// Lit is a literal: a variable or its negation.
// The encoding is 2*v for the positive literal of v and 2*v+1 for the
// negative literal. The zero Lit is invalid and used as a sentinel.
type Lit int32

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1 | 1) }

// MkLit returns the literal of v with the given sign. A true sign means
// the negative literal, matching the MiniSat convention.
func MkLit(v Var, neg bool) Lit {
	if neg {
		return NegLit(v)
	}
	return PosLit(v)
}

// Var returns the variable of the literal.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the negation of the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as "v3" or "~v3".
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("~v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver has not produced a result.
	Unknown Status = iota
	// Sat means the formula is satisfiable.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// value of a variable during search.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits    []Lit
	learnt  bool
	act     float64
	lbd     int32 // literal block distance (glue) of a learnt clause
	deleted bool
}

type watcher struct {
	cref    int // index into clauses
	blocker Lit // a literal whose truth satisfies the clause cheaply
}

type varData struct {
	assign   lbool
	level    int32
	reason   int // clause reference or -1
	activity float64
	phase    bool // saved phase: true = last assigned false (negative)
	seen     bool
}

// Solver is a CDCL SAT solver. The zero value is not usable; create
// solvers with New.
type Solver struct {
	vars    []varData // index 0 unused
	clauses []clause
	watches [][]watcher // indexed by Lit

	// lits is the slab holding every problem clause's literals: each
	// stored clause's lits is a capacity-capped window into it, so a
	// problem clause costs no allocation of its own once the slab has
	// grown. Learnt clauses are allocated individually (reduceDB
	// releases them).
	lits []Lit

	trail    []Lit
	trailLim []int
	qhead    int

	varInc    float64
	clauseInc float64

	order *varHeap

	ok    bool   // false once a top-level conflict is found
	model []bool // last satisfying assignment, indexed by Var

	// learned-clause database reduction
	numLearnt  int
	maxLearnts int

	// LBD scratch: generation-stamped per-level marks, reused across
	// computeLBD calls to avoid allocation on the conflict path.
	lbdStamp []uint64
	lbdGen   uint64

	// Conflict-analysis scratch, reused across analyze calls: the learnt
	// clause under construction and the variables to unmark.
	learntBuf []Lit
	toClear   []Var

	// restart state; the LBD EMAs persist across Solve calls so the
	// adaptive policy keeps its history over an incremental query burst.
	restartPolicy RestartPolicy
	fastLBD       float64 // short-horizon EMA of learnt-clause LBD
	slowLBD       float64 // long-horizon EMA of learnt-clause LBD

	// keptAssumps is the assumption prefix whose decision levels were
	// retained on the trail when the previous Solve call returned. The
	// next call reuses the longest common prefix instead of
	// re-propagating it from level 0.
	keptAssumps []Lit

	// statistics
	Stats Statistics

	budget int64 // max conflicts; <=0 means unlimited

	// clauseTrace, when set, receives every clause handed to AddClause
	// before normalization. Exporters use it to capture the exact CNF
	// an encoder emitted (AddClause itself drops satisfied clauses and
	// enqueues units without storing them).
	clauseTrace func(lits []Lit)
}

// SetClauseTrace registers fn to observe every AddClause call (nil
// disables tracing).
func (s *Solver) SetClauseTrace(fn func(lits []Lit)) { s.clauseTrace = fn }

// RestartPolicy selects the solver's restart strategy.
type RestartPolicy int

const (
	// RestartEMA restarts when the short-horizon EMA of learnt-clause
	// LBD exceeds the long-horizon EMA by 25% (glucose-style adaptive
	// restarts). This is the default.
	RestartEMA RestartPolicy = iota
	// RestartLuby restarts on the Luby sequence scaled by 100 conflicts.
	RestartLuby
)

// SetRestartPolicy selects the restart strategy for subsequent Solve
// calls. The default is RestartEMA.
func (s *Solver) SetRestartPolicy(p RestartPolicy) { s.restartPolicy = p }

// Statistics accumulates solver counters across Solve calls.
type Statistics struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learnt       int64
	Deleted      int64
	Restarts     int64
	// BlockerHits counts watcher visits resolved by the blocking
	// literal alone, without dereferencing the clause.
	BlockerHits int64
	// LBDSum is the sum of LBD (glue) values over learnt clauses;
	// LBDSum/Learnt is the mean glue of the run.
	LBDSum int64
	// GlueLearnt counts learnt clauses with LBD <= 2, which the
	// database reduction keeps unconditionally.
	GlueLearnt int64
	// DBReductions counts glucose-style learnt-database reductions.
	DBReductions int64
	// ReusedLevels and ReusedLits count decision levels and trail
	// literals carried over between consecutive Solve calls that
	// shared an assumption prefix.
	ReusedLevels int64
	ReusedLits   int64
}

// Sub returns the field-wise difference s - prev: the counters accrued
// since prev was snapshotted.
func (s Statistics) Sub(prev Statistics) Statistics {
	return Statistics{
		Decisions:    s.Decisions - prev.Decisions,
		Propagations: s.Propagations - prev.Propagations,
		Conflicts:    s.Conflicts - prev.Conflicts,
		Learnt:       s.Learnt - prev.Learnt,
		Deleted:      s.Deleted - prev.Deleted,
		Restarts:     s.Restarts - prev.Restarts,
		BlockerHits:  s.BlockerHits - prev.BlockerHits,
		LBDSum:       s.LBDSum - prev.LBDSum,
		GlueLearnt:   s.GlueLearnt - prev.GlueLearnt,
		DBReductions: s.DBReductions - prev.DBReductions,
		ReusedLevels: s.ReusedLevels - prev.ReusedLevels,
		ReusedLits:   s.ReusedLits - prev.ReusedLits,
	}
}

// ErrBudget is returned by SolveLimited when the conflict budget is
// exhausted before a result is established.
var ErrBudget = errors.New("sat: conflict budget exhausted")

// New returns an empty solver.
func New() *Solver {
	s := &Solver{}
	s.order = newVarHeap(s)
	s.Reset()
	return s
}

// Reset returns the solver to exactly the state New returns — no
// variables, clauses, statistics, model, budget, restart policy or
// clause trace — while keeping the capacity of its tables, so a solver
// reused across many small formulas stops allocating once it has grown
// to the largest of them. Every decision the solver makes depends only
// on the values in its tables, never on their capacity, so a formula
// solved after Reset follows the same search, and returns the same
// status, model and Statistics, as on a fresh solver.
func (s *Solver) Reset() {
	s.vars = append(s.vars[:0], varData{}) // index 0 unused
	// Watch lists past the two unused slots of variable 0 are emptied
	// by NewVar when it re-extends the table.
	if cap(s.watches) < 2 {
		s.watches = make([][]watcher, 2)
	}
	s.watches = s.watches[:2]
	s.clauses = s.clauses[:0]
	s.lits = s.lits[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.varInc, s.clauseInc = 1.0, 1.0
	s.order.heap = s.order.heap[:0]
	s.order.indices = s.order.indices[:0]
	s.ok = true
	s.model = s.model[:0]
	s.numLearnt, s.maxLearnts = 0, 0
	// lbdStamp keeps its marks: they are all older than lbdGen, which
	// only ever grows, so computeLBD treats them as unmarked.
	s.restartPolicy = RestartEMA
	s.fastLBD, s.slowLBD = 0, 0
	s.keptAssumps = s.keptAssumps[:0]
	s.Stats = Statistics{}
	s.budget = 0
	s.clauseTrace = nil
}

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.vars))
	s.vars = append(s.vars, varData{assign: lUndef, reason: -1})
	if n := len(s.watches); n+2 <= cap(s.watches) {
		// Re-slice, keeping the backing arrays of lists a Reset emptied.
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.order.push(v)
	return v
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.vars) - 1 }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int {
	n := 0
	for i := range s.clauses {
		if !s.clauses[i].learnt && !s.clauses[i].deleted {
			n++
		}
	}
	return n
}

// ensureVar grows the variable tables so that v is valid.
func (s *Solver) ensureVar(v Var) {
	for Var(len(s.vars)) <= v {
		s.NewVar()
	}
}

func (s *Solver) litValue(l Lit) lbool {
	a := s.vars[l.Var()].assign
	if a == lUndef {
		return lUndef
	}
	if l.Neg() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

// AddClause adds a clause over the given literals. It returns false if
// the solver is already in an unsatisfiable state (including the case
// where the new clause is empty after simplification at level 0).
// AddClause does not retain lits.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.clauseTrace != nil {
		// A copy, so that lits never escapes through the callback.
		s.clauseTrace(append([]Lit(nil), lits...))
	}
	// Clause addition needs level 0; drop any trail kept for
	// assumption-prefix reuse.
	s.cancelReuse()
	// Normalize onto the tail of the slab, keeping literal order:
	// sort-free dedup, drop false lits, detect tautology. Only a clause
	// that is stored keeps the tail.
	start := len(s.lits)
	for _, l := range lits {
		if l <= 1 {
			panic("sat: invalid literal")
		}
		s.ensureVar(l.Var())
		switch s.litValue(l) {
		case lTrue:
			s.lits = s.lits[:start]
			return true // clause already satisfied at level 0
		case lFalse:
			continue // literal cannot help
		}
		dup := false
		for _, o := range s.lits[start:] {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				s.lits = s.lits[:start]
				return true // tautology
			}
		}
		if !dup {
			s.lits = append(s.lits, l)
		}
	}
	out := s.lits[start:len(s.lits):len(s.lits)]
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		unit := out[0]
		s.lits = s.lits[:start]
		if !s.enqueue(unit, -1) {
			s.ok = false
			return false
		}
		if conf := s.propagate(); conf != -1 {
			s.ok = false
			return false
		}
		return true
	}
	cref := len(s.clauses)
	s.clauses = append(s.clauses, clause{lits: out})
	s.watchClause(cref)
	return true
}

func (s *Solver) watchClause(cref int) {
	c := &s.clauses[cref]
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{cref, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{cref, c.lits[0]})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// enqueue assigns literal l to true with the given reason clause.
// It returns false on an immediate conflict with an existing assignment.
func (s *Solver) enqueue(l Lit, reason int) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	vd := &s.vars[l.Var()]
	if l.Neg() {
		vd.assign = lFalse
	} else {
		vd.assign = lTrue
	}
	vd.level = int32(s.decisionLevel())
	vd.reason = reason
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation. It returns the reference of a
// conflicting clause, or -1 if no conflict occurred.
func (s *Solver) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker first: a true blocking literal satisfies the
			// clause without touching the clause memory at all.
			if s.litValue(w.blocker) == lTrue {
				s.Stats.BlockerHits++
				ws[n] = w
				n++
				continue
			}
			c := &s.clauses[w.cref]
			if c.deleted {
				continue // drop the watcher of a reduced clause
			}
			// Ensure the false literal (p.Not()) is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				ws[n] = watcher{w.cref, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{w.cref, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{w.cref, first}
			n++
			if s.litValue(first) == lFalse {
				// Conflict: copy back remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return w.cref
			}
			s.enqueue(first, w.cref)
		}
		s.watches[p] = ws[:n]
	}
	return -1
}

// analyze performs first-UIP conflict analysis. It returns the learnt
// clause (with the asserting literal first), the backtrack level, and
// the clause's LBD (computed while every literal is still assigned).
// The clause lives in the solver's analysis scratch and is valid until
// the next analyze; learnClause copies it.
func (s *Solver) analyze(confl int) ([]Lit, int, int32) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for asserting literal
	seenCount := 0
	p := Lit(0)
	idx := len(s.trail) - 1
	toClear := s.toClear[:0]

	for {
		c := &s.clauses[confl]
		if c.learnt {
			s.bumpClause(confl)
		}
		start := 0
		if p != 0 {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			vd := &s.vars[v]
			if !vd.seen && vd.level > 0 {
				vd.seen = true
				toClear = append(toClear, v)
				s.bumpVar(v)
				if int(vd.level) >= s.decisionLevel() {
					seenCount++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal to look at.
		for !s.vars[s.trail[idx].Var()].seen {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.vars[p.Var()].reason
		s.vars[p.Var()].seen = false
		seenCount--
		if seenCount == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Minimize: remove literals implied by the rest of the clause.
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if !s.redundant(l) {
			out = append(out, l)
		}
	}
	learnt = out

	// Find backtrack level: max level among lits[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.vars[learnt[i].Var()].level > s.vars[learnt[maxI].Var()].level {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.vars[learnt[1].Var()].level)
	}
	for _, v := range toClear {
		s.vars[v].seen = false
	}
	s.learntBuf, s.toClear = learnt, toClear
	return learnt, btLevel, s.computeLBD(learnt)
}

// computeLBD returns the literal block distance of lits: the number of
// distinct non-zero decision levels among their (assigned) variables.
// Generation-stamped marks avoid clearing between calls.
func (s *Solver) computeLBD(lits []Lit) int32 {
	if need := s.decisionLevel() + 1; len(s.lbdStamp) < need {
		s.lbdStamp = append(s.lbdStamp, make([]uint64, need-len(s.lbdStamp))...)
	}
	s.lbdGen++
	var lbd int32
	for _, l := range lits {
		lvl := s.vars[l.Var()].level
		if lvl <= 0 || int(lvl) >= len(s.lbdStamp) {
			continue
		}
		if s.lbdStamp[lvl] != s.lbdGen {
			s.lbdStamp[lvl] = s.lbdGen
			lbd++
		}
	}
	return lbd
}

// redundant reports whether literal l in a learnt clause is implied by
// the remaining seen literals (simple local minimization: every literal
// of its reason clause must be seen or at level 0).
func (s *Solver) redundant(l Lit) bool {
	r := s.vars[l.Var()].reason
	if r < 0 {
		return false
	}
	for _, q := range s.clauses[r].lits {
		if q.Var() == l.Var() {
			continue
		}
		vd := &s.vars[q.Var()]
		if !vd.seen && vd.level > 0 {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v Var) {
	s.vars[v].activity += s.varInc
	if s.vars[v].activity > 1e100 {
		for i := 1; i < len(s.vars); i++ {
			s.vars[i].activity *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(cref int) {
	c := &s.clauses[cref]
	// A clause participating in conflict analysis has every literal
	// assigned, so its LBD can be refreshed; keep the minimum seen.
	if nl := s.computeLBD(c.lits); nl > 0 && nl < c.lbd {
		c.lbd = nl
	}
	c.act += s.clauseInc
	if c.act > 1e20 {
		for i := range s.clauses {
			if s.clauses[i].learnt {
				s.clauses[i].act *= 1e-20
			}
		}
		s.clauseInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.clauseInc /= 0.999
}

// backtrackTo undoes assignments above the given decision level.
func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		l := s.trail[i]
		vd := &s.vars[l.Var()]
		vd.phase = l.Neg()
		vd.assign = lUndef
		vd.reason = -1
		s.order.push(l.Var())
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = limit
}

// pickBranchLit selects the next decision literal, or 0 if all variables
// are assigned.
func (s *Solver) pickBranchLit() Lit {
	for {
		v, ok := s.order.pop()
		if !ok {
			return 0
		}
		if s.vars[v].assign == lUndef {
			return MkLit(v, s.vars[v].phase)
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// SetConflictBudget limits subsequent Solve calls to approximately n
// conflicts; n <= 0 removes the limit.
func (s *Solver) SetConflictBudget(n int64) { s.budget = n }

// Solve determines satisfiability under the given assumptions. The
// assumptions hold only for this call.
func (s *Solver) Solve(assumptions ...Lit) Status {
	st, _ := s.SolveLimited(assumptions...)
	return st
}

// cancelReuse drops any trail retained for assumption-prefix reuse and
// returns the solver to decision level 0.
func (s *Solver) cancelReuse() {
	s.backtrackTo(0)
	s.keptAssumps = s.keptAssumps[:0]
}

// reusePrefix backtracks only far enough to discard the part of the
// previous call's kept assumption prefix that the new assumptions do
// not share. Levels 1..k of the trail stay intact along with every
// literal they implied.
func (s *Solver) reusePrefix(assumptions []Lit) {
	k := 0
	for k < len(s.keptAssumps) && k < len(assumptions) && s.keptAssumps[k] == assumptions[k] {
		k++
	}
	if dl := s.decisionLevel(); k > dl {
		k = dl
	}
	s.backtrackTo(k)
	s.keptAssumps = s.keptAssumps[:0]
	if k > 0 {
		s.Stats.ReusedLevels += int64(k)
		s.Stats.ReusedLits += int64(len(s.trail))
	}
}

// finishSolve retains the decision levels corresponding to the
// established assumption prefix (so the next call over the same prefix
// skips their propagation) and records which assumptions they cover.
//
// Invariant relied on: at any point of the search loop, the leading
// min(decisionLevel, len(assumptions)) decision levels correspond
// one-to-one to the assumption prefix — levels are only ever opened in
// assumption order (with dummy levels for already-implied assumptions)
// and backtracking removes a suffix of levels.
func (s *Solver) finishSolve(assumptions []Lit) {
	if !s.ok {
		s.cancelReuse()
		return
	}
	keep := s.decisionLevel()
	if keep > len(assumptions) {
		keep = len(assumptions)
	}
	s.backtrackTo(keep)
	s.keptAssumps = append(s.keptAssumps[:0], assumptions[:keep]...)
}

// SolveLimited is Solve with support for conflict budgets: it returns
// ErrBudget if the budget set via SetConflictBudget was exhausted
// before a result could be established.
//
// After every backtrack the main loop re-establishes the assumption
// prefix, one assumption per decision level; a falsified assumption
// means unsatisfiability under the assumptions.
//
// Between consecutive calls the solver keeps the decision levels of the
// established assumption prefix on the trail; a following call whose
// assumptions share a prefix with the previous call's resumes from the
// first differing assumption instead of from level 0.
func (s *Solver) SolveLimited(assumptions ...Lit) (Status, error) {
	if !s.ok {
		return Unsat, nil
	}
	for _, a := range assumptions {
		s.ensureVar(a.Var())
	}
	s.reusePrefix(assumptions)
	defer s.finishSolve(assumptions)

	conflictsAtStart := s.Stats.Conflicts
	conflictsSinceRestart := int64(0)
	restartIdx := int64(1)
	restartLimit := int64(100) * luby(restartIdx)

	for {
		confl := s.propagate()
		if confl != -1 {
			s.Stats.Conflicts++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat, nil
			}
			learnt, btLevel, lbd := s.analyze(confl)
			s.updateLBDEMAs(lbd)
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				if btLevel != 0 {
					s.backtrackTo(0)
				}
				if !s.enqueue(learnt[0], -1) {
					s.ok = false
					return Unsat, nil
				}
			} else {
				cref := s.learnClause(learnt, lbd)
				s.enqueue(learnt[0], cref)
			}
			s.decayActivities()
			if s.maxLearnts == 0 {
				s.maxLearnts = s.NumClauses()/3 + 2000
			}
			if s.numLearnt > s.maxLearnts {
				s.reduceDB()
				s.maxLearnts += s.maxLearnts / 10
			}
			if s.budget > 0 && s.Stats.Conflicts-conflictsAtStart >= s.budget {
				return Unknown, ErrBudget
			}
			if s.shouldRestart(conflictsSinceRestart, &restartIdx, &restartLimit, conflictsAtStart) {
				s.Stats.Restarts++
				conflictsSinceRestart = 0
				s.backtrackTo(0)
			}
			continue
		}
		// No conflict: establish the assumption prefix, then decide.
		if lvl := s.decisionLevel(); lvl < len(assumptions) {
			a := assumptions[lvl]
			switch s.litValue(a) {
			case lTrue:
				// Already implied; open a dummy level to keep the
				// level-to-assumption correspondence.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				return Unsat, nil
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, -1)
			continue
		}
		next := s.pickBranchLit()
		if next == 0 {
			s.captureModel()
			return Sat, nil
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(next, -1)
	}
}

// updateLBDEMAs folds a learnt clause's LBD into the fast (1/32) and
// slow (1/1024) exponential moving averages driving RestartEMA.
func (s *Solver) updateLBDEMAs(lbd int32) {
	l := float64(lbd)
	if s.slowLBD == 0 {
		s.fastLBD, s.slowLBD = l, l
		return
	}
	s.fastLBD += (l - s.fastLBD) / 32
	s.slowLBD += (l - s.slowLBD) / 1024
}

// shouldRestart implements the active restart policy. For RestartEMA
// the trigger is fast > 1.25*slow after at least 32 conflicts since
// the last restart (resetting fast to slow on fire); for RestartLuby
// it is the conflict count crossing the scaled Luby sequence.
func (s *Solver) shouldRestart(sinceRestart int64, restartIdx, restartLimit *int64, conflictsAtStart int64) bool {
	switch s.restartPolicy {
	case RestartLuby:
		if s.Stats.Conflicts-conflictsAtStart >= *restartLimit {
			*restartIdx++
			*restartLimit = s.Stats.Conflicts - conflictsAtStart + 100*luby(*restartIdx)
			return true
		}
		return false
	default: // RestartEMA
		if sinceRestart >= 32 && s.fastLBD > 1.25*s.slowLBD {
			s.fastLBD = s.slowLBD
			return true
		}
		return false
	}
}

// captureModel snapshots the current complete assignment.
func (s *Solver) captureModel() {
	if cap(s.model) < len(s.vars) {
		s.model = make([]bool, len(s.vars))
	}
	s.model = s.model[:len(s.vars)]
	for v := 1; v < len(s.vars); v++ {
		s.model[v] = s.vars[v].assign == lTrue
	}
}

func (s *Solver) learnClause(lits []Lit, lbd int32) int {
	s.Stats.Learnt++
	s.Stats.LBDSum += int64(lbd)
	if lbd <= 2 {
		s.Stats.GlueLearnt++
	}
	s.numLearnt++
	cref := len(s.clauses)
	cp := make([]Lit, len(lits))
	copy(cp, lits)
	s.clauses = append(s.clauses, clause{lits: cp, learnt: true, act: s.clauseInc, lbd: lbd})
	s.watchClause(cref)
	return cref
}

// reduceDB performs a glucose-style learnt-database reduction: binary
// clauses, glue clauses (LBD <= 2), and clauses currently acting as
// reasons are kept unconditionally; the rest are sorted worst-first by
// (LBD descending, activity ascending) and the worse half is deleted.
// Deleted clauses are skipped lazily by propagate.
func (s *Solver) reduceDB() {
	s.Stats.DBReductions++
	locked := make(map[int]bool)
	for v := 1; v < len(s.vars); v++ {
		if s.vars[v].assign != lUndef && s.vars[v].reason >= 0 {
			locked[s.vars[v].reason] = true
		}
	}
	var cands []int
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.learnt && !c.deleted && len(c.lits) > 2 && c.lbd > 2 && !locked[i] {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := &s.clauses[cands[a]], &s.clauses[cands[b]]
		if ca.lbd != cb.lbd {
			return ca.lbd > cb.lbd
		}
		return ca.act < cb.act
	})
	removed := 0
	for _, i := range cands[:len(cands)/2] {
		c := &s.clauses[i]
		c.deleted = true
		c.lits = nil
		removed++
		s.numLearnt--
	}
	s.Stats.Deleted += int64(removed)
}

// Value returns the value of v in the most recent satisfying
// assignment. It is only meaningful after Solve has returned Sat.
func (s *Solver) Value(v Var) bool {
	if int(v) >= len(s.model) {
		return false
	}
	return s.model[v]
}

// Model returns a copy of the last satisfying assignment, indexed by
// variable (index 0 unused).
func (s *Solver) Model() []bool {
	out := make([]bool, len(s.model))
	copy(out, s.model)
	return out
}
