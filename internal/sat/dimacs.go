package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxDIMACSMagnitude bounds every literal and header count: a literal
// of variable v is encoded as 2v or 2v+1 in an int32.
const maxDIMACSMagnitude = 1 << 30

// MaxDIMACSVars caps the variable count of a DIMACS formula, declared or
// used: LoadDIMACS allocates solver state for every variable up front,
// so an oversized header is refused instead of exhausting memory.
const MaxDIMACSVars = 1 << 20

// ParseDIMACS reads a CNF formula in DIMACS format. It returns the
// variable count — the largest of the declared count and the variables
// the literals use — and the clauses. The header is optional. Literals
// and header counts of magnitude 2^30 or more, and variable counts above
// MaxDIMACSVars, are refused with the line they occur on.
func ParseDIMACS(r io.Reader) (numVars int, clauses [][]Lit, err error) {
	sc := bufio.NewScanner(r)
	// Start small (the scanner grows its buffer on demand) but accept
	// clause lines up to 64 MiB.
	sc.Buffer(nil, 64<<20)
	var cur []Lit
	lineNo := 0
	// number parses a literal or header count: magnitudes the literal
	// encoding cannot hold, and above limit, are refused.
	number := func(what, tok string, limit int) (int, error) {
		v, err := strconv.Atoi(tok)
		switch {
		case err != nil:
			return 0, fmt.Errorf("dimacs: line %d: bad %s %q", lineNo, what, tok)
		case v >= maxDIMACSMagnitude || v <= -maxDIMACSMagnitude:
			return 0, fmt.Errorf("dimacs: line %d: %s %q out of range (magnitude must be below 2^30)", lineNo, what, tok)
		case v > limit || v < -limit:
			return 0, fmt.Errorf("dimacs: line %d: %s %q exceeds the cap of %d variables", lineNo, what, tok, limit)
		}
		return v, nil
	}
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
			v, err := number("variable count", fields[2], MaxDIMACSVars)
			if err != nil {
				return 0, nil, err
			}
			c, err := number("clause count", fields[3], maxDIMACSMagnitude)
			if err != nil {
				return 0, nil, err
			}
			if v < 0 || c < 0 {
				return 0, nil, fmt.Errorf("dimacs: line %d: negative count in %q", lineNo, line)
			}
			numVars = max(numVars, v)
			continue
		}
		for _, tok := range strings.Fields(line) {
			v, err := number("literal", tok, MaxDIMACSVars)
			if err != nil {
				return 0, nil, err
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
			numVars = max(numVars, v)
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
