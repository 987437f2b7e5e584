package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a CNF formula in DIMACS format. It returns the
// declared variable count and the clauses. The header is optional; the
// actual variable count grows with the literals seen.
func ParseDIMACS(r io.Reader) (numVars int, clauses [][]Lit, err error) {
	sc := bufio.NewScanner(r)
	// Start small (the scanner grows its buffer on demand) but accept
	// clause lines up to 64 MiB.
	sc.Buffer(nil, 64<<20)
	var cur []Lit
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return 0, nil, fmt.Errorf("dimacs: line %d: malformed problem line %q", lineNo, line)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil || v < 0 {
				return 0, nil, fmt.Errorf("dimacs: line %d: bad variable count %q", lineNo, fields[2])
			}
			numVars = v
			continue
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return 0, nil, fmt.Errorf("dimacs: line %d: bad literal %q", lineNo, tok)
			}
			if v == 0 {
				clauses = append(clauses, cur)
				cur = nil
				continue
			}
			neg := v < 0
			if neg {
				v = -v
			}
			if v > numVars {
				numVars = v
			}
			cur = append(cur, MkLit(Var(v), neg))
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if len(cur) > 0 {
		clauses = append(clauses, cur)
	}
	return numVars, clauses, nil
}

// LoadDIMACS parses a DIMACS CNF and loads it into a fresh solver.
func LoadDIMACS(r io.Reader) (*Solver, error) {
	numVars, clauses, err := ParseDIMACS(r)
	if err != nil {
		return nil, err
	}
	s := New()
	for v := 0; v < numVars; v++ {
		s.NewVar()
	}
	for _, c := range clauses {
		if !s.AddClause(c...) {
			// Top-level conflict: keep loading is pointless, but the
			// solver faithfully reports Unsat.
			break
		}
	}
	return s, nil
}

// WriteDIMACS renders the solver's problem clauses (not learned ones)
// in DIMACS CNF format.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), s.NumClauses())
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.learnt || c.deleted {
			continue
		}
		for _, l := range c.lits {
			v := int(l.Var())
			if l.Neg() {
				v = -v
			}
			fmt.Fprintf(bw, "%d ", v)
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

// WriteDIMACS writes a CNF formula in DIMACS format, the inverse of
// ParseDIMACS. Comment lines (without the leading "c ") may precede
// the problem line.
func WriteDIMACS(w io.Writer, numVars int, clauses [][]Lit, comments ...string) error {
	bw := bufio.NewWriter(w)
	for _, c := range comments {
		if _, err := fmt.Fprintf(bw, "c %s\n", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", numVars, len(clauses)); err != nil {
		return err
	}
	for _, cl := range clauses {
		for _, l := range cl {
			v := int(l.Var())
			if l.Neg() {
				v = -v
			}
			if _, err := fmt.Fprintf(bw, "%d ", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
