package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

// resetSession is an incremental workload: a base formula, then a
// sequence of solves under assumptions with clauses added in between.
type resetSession struct {
	nVars   int
	clauses [][]Lit
	steps   []resetStep
}

type resetStep struct {
	add     [][]Lit // clauses added before the solve
	assumps []Lit
}

// resetOutcome is everything observable after one solve.
type resetOutcome struct {
	Status     Status
	Model      []bool
	Stats      Statistics
	NumVars    int
	NumClauses int
}

func randomClause(rng *rand.Rand, nVars, width int) []Lit {
	cl := make([]Lit, width)
	for i := range cl {
		cl[i] = MkLit(Var(1+rng.Intn(nVars)), rng.Intn(2) == 0)
	}
	return cl
}

// randomSession draws a small mixed-width formula, or with hard set a
// 3-SAT formula near the satisfiability threshold, whose hundreds of
// conflicts drive restarts, activity rescaling and database reduction.
func randomSession(rng *rand.Rand, hard bool) resetSession {
	n := 8 + rng.Intn(33)
	m := n*3 + rng.Intn(2*n)
	if hard {
		n = 70 + rng.Intn(30)
		m = n * 43 / 10
	}
	sess := resetSession{nVars: n}
	for i := 0; i < m; i++ {
		w := 1 + rng.Intn(4)
		if hard {
			w = 3
		}
		sess.clauses = append(sess.clauses, randomClause(rng, n, w))
	}
	// Queries share an assumption prefix, as the cofactor queries of
	// internal/dep do, so trail reuse is exercised within a session.
	prefix := randomClause(rng, n, rng.Intn(4))
	for q := 2 + rng.Intn(6); q > 0; q-- {
		var st resetStep
		if rng.Intn(3) == 0 {
			st.add = append(st.add, randomClause(rng, n, 2+rng.Intn(2)))
		}
		st.assumps = append(append([]Lit(nil), prefix...), randomClause(rng, n, rng.Intn(3))...)
		sess.steps = append(sess.steps, st)
	}
	return sess
}

func (sess resetSession) run(s *Solver) []resetOutcome {
	for i := 0; i < sess.nVars; i++ {
		s.NewVar()
	}
	for _, cl := range sess.clauses {
		s.AddClause(cl...)
	}
	var out []resetOutcome
	for _, st := range sess.steps {
		for _, cl := range st.add {
			s.AddClause(cl...)
		}
		status := s.Solve(st.assumps...)
		out = append(out, resetOutcome{status, s.Model(), s.Stats, s.NumVars(), s.NumClauses()})
	}
	return out
}

// dirtyUnsatEmpty leaves the solver unsatisfiable at level 0 (ok false).
func dirtyUnsatEmpty(s *Solver) {
	v := s.NewVar()
	s.AddClause(PosLit(v))
	s.AddClause(NegLit(v))
	if s.ok {
		panic("contradictory units left the solver ok")
	}
}

// dirtyUnsatSearch leaves the solver unsatisfiable after a search, with
// a Luby restart policy, a budget and a clause trace configured.
func dirtyUnsatSearch(s *Solver) {
	s.SetRestartPolicy(RestartLuby)
	s.SetClauseTrace(func([]Lit) {})
	addPigeonhole(s, 6, 5)
	if s.Solve() != Unsat {
		panic("PHP(6,5) not unsat")
	}
	s.SetConflictBudget(3)
}

// dirtyKeptTrail leaves assumption levels kept on the trail and a model.
func dirtyKeptTrail(s *Solver) {
	const n = 25
	for i := 1; i <= n; i++ {
		s.NewVar()
	}
	for i := 1; i < n; i++ {
		s.AddClause(NegLit(Var(i)), PosLit(Var(i+1)))
	}
	if s.Solve(PosLit(1), PosLit(3)) != Sat {
		panic("ladder not sat")
	}
	if s.decisionLevel() == 0 || len(s.keptAssumps) == 0 {
		panic("no kept assumption trail")
	}
}

// dirtyReduceDB leaves a learnt database that went through reductions.
func dirtyReduceDB(s *Solver) {
	s.maxLearnts = 20
	addPigeonhole(s, 7, 6)
	s.Solve()
	if s.Stats.DBReductions == 0 {
		panic("no DB reduction")
	}
}

// TestSolverResetMatchesFresh checks that Reset restores exactly the
// state New returns: random incremental sessions solved on one solver,
// Reset after each earlier formula — including one left Unsat
// (ok == false), one with a kept assumption trail and one after
// reduceDB — give the same status, model and every Statistics field,
// solve by solve, as on a fresh solver.
func TestSolverResetMatchesFresh(t *testing.T) {
	dirty := []struct {
		name string
		fn   func(*Solver)
	}{
		{"unsat-empty", dirtyUnsatEmpty},
		{"unsat-search", dirtyUnsatSearch},
		{"kept-trail", dirtyKeptTrail},
		{"reduce-db", dirtyReduceDB},
		{"previous-session", func(*Solver) {}},
	}
	rng := rand.New(rand.NewSource(5))
	reused := New()
	for iter := 0; iter < 100; iter++ {
		d := dirty[iter%len(dirty)]
		sess := randomSession(rng, iter%3 == 0)
		want := sess.run(New())
		reused.Reset()
		d.fn(reused)
		reused.Reset()
		got := sess.run(reused)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("iter %d after %s, solve %d: reset solver %+v, fresh %+v",
						iter, d.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestResetClearsConfiguration checks the settings Reset restores:
// restart policy, conflict budget and clause trace.
func TestResetClearsConfiguration(t *testing.T) {
	s := New()
	traced := 0
	s.SetClauseTrace(func([]Lit) { traced++ })
	s.SetRestartPolicy(RestartLuby)
	s.SetConflictBudget(1)
	s.Reset()
	addPigeonhole(s, 7, 6)
	if traced != 0 {
		t.Fatalf("clause trace survived Reset: %d clauses traced", traced)
	}
	if st, err := s.SolveLimited(); st != Unsat || err != nil {
		t.Fatalf("SolveLimited = %v, %v; the budget survived Reset", st, err)
	}
	fresh := New()
	addPigeonhole(fresh, 7, 6)
	fresh.Solve()
	if s.Stats != fresh.Stats {
		t.Fatalf("stats after Reset %+v, fresh %+v (restart policy survived?)", s.Stats, fresh.Stats)
	}
}

// TestAddClauseDoesNotAllocate checks that, once the solver has grown,
// problem clauses are stored in its literal slab without allocating.
func TestAddClauseDoesNotAllocate(t *testing.T) {
	s := New()
	fill := func() {
		s.Reset()
		for i := 0; i < 64; i++ {
			s.NewVar()
		}
		for i := 1; i+2 <= 64; i++ {
			s.AddClause(PosLit(Var(i)), NegLit(Var(i+1)), PosLit(Var(i+2)))
		}
	}
	fill()
	if a := testing.AllocsPerRun(20, fill); a != 0 {
		t.Fatalf("Reset plus re-encoding allocated %.1f times per run", a)
	}
}
