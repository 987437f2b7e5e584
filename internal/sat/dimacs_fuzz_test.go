package sat

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzParseDIMACS feeds arbitrary text to the DIMACS reader: it must
// never panic, and a formula it accepts must survive WriteDIMACS and a
// second ParseDIMACS with the same variable count and clauses. Small
// accepted formulas are also loaded into a solver. The seeds are the
// package's DIMACS test inputs and its testdata formulas.
func FuzzParseDIMACS(f *testing.F) {
	for _, s := range []string{
		"c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n",
		"1 2 0\n-1 0\n",
		"1 2\n3 0\n",
		"1 -2",
		"p cnf x 2\n", "p cnf\n", "1 foo 0\n",
		"p cnf 3 4\n1 0\n-1 2 0\n-2 3 0\n-3 0\n",
		"1 -2147483649 0\n", "1 1073741824 0\n", "p cnf 1048577 1\n",
		"5 0\np cnf 2 1\n", "0\n0\n",
	} {
		f.Add([]byte(s))
	}
	files, _ := filepath.Glob(filepath.Join("testdata", "*.cnf"))
	for _, name := range files {
		if data, err := os.ReadFile(name); err == nil && len(data) <= 1<<14 {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, clauses, err := ParseDIMACS(bytes.NewReader(data))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteDIMACS(&sb, n, clauses); err != nil {
			t.Fatal(err)
		}
		n2, clauses2, err := ParseDIMACS(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("written formula refused: %v\n%s", err, sb.String())
		}
		if n2 != n || len(clauses2) != len(clauses) {
			t.Fatalf("round trip: %d variables, %d clauses; want %d, %d", n2, len(clauses2), n, len(clauses))
		}
		for i := range clauses {
			if !slices.Equal(clauses[i], clauses2[i]) {
				t.Fatalf("round trip: clause %d = %v, want %v", i, clauses2[i], clauses[i])
			}
		}
		if n <= 1<<12 {
			if _, err := LoadDIMACS(bytes.NewReader(data)); err != nil {
				t.Fatalf("LoadDIMACS refused an accepted formula: %v", err)
			}
		}
	})
}
