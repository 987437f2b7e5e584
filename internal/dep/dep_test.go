package dep

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

func TestCombine(t *testing.T) {
	cases := []struct{ a, b, want Kind }{
		{Path, Path, Path},
		{Path, Structural, Structural},
		{Structural, Path, Structural},
		{Structural, Structural, Structural},
		{None, Path, None},
		{Path, None, None},
		{None, None, None},
	}
	for _, c := range cases {
		if got := Combine(c.a, c.b); got != c.want {
			t.Errorf("Combine(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMax(t *testing.T) {
	if Max(Structural, Path) != Path || Max(None, Structural) != Structural || Max(None, None) != None {
		t.Fatal("Max wrong")
	}
}

func TestKindString(t *testing.T) {
	if None.String() != "none" || Structural.String() != "structural" || Path.String() != "path" {
		t.Fatal("Kind.String")
	}
	if Exact.String() != "exact" || StructuralApprox.String() != "structural-approx" {
		t.Fatal("Mode.String")
	}
}

func TestFunctionalDependsBuf(t *testing.T) {
	n := netlist.New()
	m := n.AddModule("m")
	a := n.AddFF("a", m)
	b := n.AddFF("b", m)
	n.SetFFInput(a, n.FFs[a].Node)
	d := n.AddGate(netlist.Buf, n.FFs[a].Node)
	n.SetFFInput(b, d)
	if !FunctionalDepends(n, d, n.FFs[a].Node) {
		t.Fatal("buf must be functional")
	}
	if FunctionalDepends(n, d, n.FFs[b].Node) {
		t.Fatal("b is not in the cone")
	}
}

func TestFunctionalDependsDirectWire(t *testing.T) {
	// b.D wired directly to a's output node (no gate).
	n := netlist.New()
	m := n.AddModule("m")
	a := n.AddFF("a", m)
	if !FunctionalDepends(n, n.FFs[a].Node, n.FFs[a].Node) {
		t.Fatal("a node depends on itself trivially")
	}
}

func TestFunctionalDependsMaskedReconvergence(t *testing.T) {
	// out = XOR(s, XOR(s, c)) == c: structural on s, functional on c.
	n := netlist.New()
	m := n.AddModule("m")
	s := n.AddFF("s", m)
	c := n.AddFF("c", m)
	inner := n.AddGate(netlist.Xor, n.FFs[s].Node, n.FFs[c].Node)
	outer := n.AddGate(netlist.Xor, n.FFs[s].Node, inner)
	if FunctionalDepends(n, outer, n.FFs[s].Node) {
		t.Fatal("masked signal must not be functional")
	}
	if !FunctionalDepends(n, outer, n.FFs[c].Node) {
		t.Fatal("carrier must be functional")
	}
}

func TestFunctionalDependsConstantMask(t *testing.T) {
	// out = AND(a, const0): structural-only on a.
	n := netlist.New()
	m := n.AddModule("m")
	a := n.AddFF("a", m)
	zero := n.AddConst(false)
	out := n.AddGate(netlist.And, n.FFs[a].Node, zero)
	if FunctionalDepends(n, out, n.FFs[a].Node) {
		t.Fatal("AND with 0 cannot propagate")
	}
	one := n.AddConst(true)
	out2 := n.AddGate(netlist.And, n.FFs[a].Node, one)
	if !FunctionalDepends(n, out2, n.FFs[a].Node) {
		t.Fatal("AND with 1 must propagate")
	}
}

// coneEval evaluates node id over a leaf assignment, recursively.
func coneEval(n *netlist.Netlist, id netlist.NodeID, leaves map[netlist.NodeID]bool) bool {
	if v, ok := leaves[id]; ok {
		return v
	}
	nd := &n.Nodes[id]
	switch nd.Kind {
	case netlist.KindConst0:
		return false
	case netlist.KindConst1:
		return true
	case netlist.KindGate:
		in := make([]bool, len(nd.Fanin))
		for i, f := range nd.Fanin {
			in[i] = coneEval(n, f, leaves)
		}
		return netlist.EvalGate(nd.Gate, in)
	}
	panic("unassigned leaf in coneEval")
}

// bruteDepends checks functional dependence by enumerating all leaf
// assignments.
func bruteDepends(n *netlist.Netlist, root, leaf netlist.NodeID) bool {
	_, leaves := n.Cone(root)
	var free []netlist.NodeID
	found := false
	for _, l := range leaves {
		if l == leaf {
			found = true
			continue
		}
		if k := n.Nodes[l].Kind; k == netlist.KindConst0 || k == netlist.KindConst1 {
			continue
		}
		free = append(free, l)
	}
	if !found {
		return false
	}
	for m := 0; m < 1<<uint(len(free)); m++ {
		asg := map[netlist.NodeID]bool{}
		for i, l := range free {
			asg[l] = m>>uint(i)&1 == 1
		}
		asg[leaf] = false
		v0 := coneEval(n, root, asg)
		asg[leaf] = true
		v1 := coneEval(n, root, asg)
		if v0 != v1 {
			return true
		}
	}
	return false
}

func TestFunctionalDependsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 60; iter++ {
		n := netlist.New()
		mod := n.AddModule("m")
		nLeaves := 3 + rng.Intn(4)
		var leafNodes []netlist.NodeID
		for i := 0; i < nLeaves; i++ {
			if rng.Intn(4) == 0 {
				leafNodes = append(leafNodes, n.AddInput("pi"))
			} else {
				f := n.AddFF("f", mod)
				n.SetFFInput(f, n.FFs[f].Node)
				leafNodes = append(leafNodes, n.FFs[f].Node)
			}
		}
		nodes := append([]netlist.NodeID{}, leafNodes...)
		var root netlist.NodeID = nodes[0]
		for g := 0; g < 6+rng.Intn(8); g++ {
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			c := nodes[rng.Intn(len(nodes))]
			var o netlist.NodeID
			switch rng.Intn(6) {
			case 0:
				o = n.AddGate(netlist.And, a, b)
			case 1:
				o = n.AddGate(netlist.Or, a, b)
			case 2:
				o = n.AddGate(netlist.Xor, a, b)
			case 3:
				o = n.AddGate(netlist.Not, a)
			case 4:
				o = n.AddGate(netlist.Mux, a, b, c)
			default:
				o = n.AddGate(netlist.Maj, a, b, c)
			}
			nodes = append(nodes, o)
			root = o
		}
		for _, leaf := range leafNodes {
			want := bruteDepends(n, root, leaf)
			got := FunctionalDepends(n, root, leaf)
			if got != want {
				t.Fatalf("iter %d: FunctionalDepends=%v brute=%v", iter, got, want)
			}
		}
	}
}

func TestMatrixSetKind(t *testing.T) {
	m := NewMatrix(4)
	m.Set(1, 0, Structural)
	m.Set(2, 1, Path)
	if m.Kind(1, 0) != Structural || m.Kind(2, 1) != Path || m.Kind(0, 1) != None {
		t.Fatal("Kind wrong")
	}
	// Raising structural to path must work.
	m.Set(1, 0, Path)
	if m.Kind(1, 0) != Path {
		t.Fatal("raise to Path failed")
	}
	if m.CountDeps() != 2 || m.CountPath() != 2 {
		t.Fatalf("counts: deps=%d path=%d", m.CountDeps(), m.CountPath())
	}
}

// TestBridgeFigure3 reproduces the paper's Figure 3 bridging trace.
func TestBridgeFigure3(t *testing.T) {
	// Indices: F5=0, F6=1, IF1=2, IF2=3, F9=4.
	m := NewMatrix(5)
	m.Set(4, 3, Path)       // F9 on IF2
	m.Set(3, 2, Path)       // IF2 on IF1
	m.Set(2, 1, Structural) // IF1 on F6 (str.)
	m.Set(2, 0, Path)       // IF1 on F5
	Bridge(m, []netlist.FFID{2, 3})
	if got := m.Kind(4, 0); got != Path {
		t.Errorf("F9 on F5 = %v, want path", got)
	}
	if got := m.Kind(4, 1); got != Structural {
		t.Errorf("F9 on F6 = %v, want structural", got)
	}
	// Bridged nodes carry nothing.
	for j := 0; j < 5; j++ {
		if m.Kind(2, j) != None || m.Kind(3, j) != None || m.Kind(j, 2) != None || m.Kind(j, 3) != None {
			t.Fatal("bridged flip-flops must be cleared")
		}
	}
	if m.CountDeps() != 2 {
		t.Fatalf("CountDeps = %d, want 2", m.CountDeps())
	}
}

func TestBridgeIntermediateStep(t *testing.T) {
	// After bridging only IF1, Figure 3 shows IF2 on F6 (str.) and
	// IF2 on F5 (path) with F9 on IF2 unchanged.
	m := NewMatrix(5)
	m.Set(4, 3, Path)
	m.Set(3, 2, Path)
	m.Set(2, 1, Structural)
	m.Set(2, 0, Path)
	Bridge(m, []netlist.FFID{2})
	if m.Kind(3, 1) != Structural || m.Kind(3, 0) != Path || m.Kind(4, 3) != Path {
		t.Fatalf("intermediate state wrong: %v %v %v", m.Kind(3, 1), m.Kind(3, 0), m.Kind(4, 3))
	}
}

func TestBridgeSelfLoop(t *testing.T) {
	// k depends on itself; bridging must not corrupt others.
	m := NewMatrix(3)
	m.Set(1, 1, Path) // self loop on the internal FF
	m.Set(1, 0, Path)
	m.Set(2, 1, Path)
	Bridge(m, []netlist.FFID{1})
	if m.Kind(2, 0) != Path {
		t.Fatalf("bridged dep = %v, want path", m.Kind(2, 0))
	}
}

// floydReference computes the semiring closure by iterated relaxation.
func floydReference(d [][]Kind) {
	n := len(d)
	for {
		changed := false
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					c := Combine(d[i][k], d[k][j])
					if Max(d[i][j], c) != d[i][j] {
						d[i][j] = Max(d[i][j], c)
						changed = true
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

func TestClosureAgainstFloyd(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.Intn(10)
		m := NewMatrix(n)
		ref := make([][]Kind, n)
		for i := range ref {
			ref[i] = make([]Kind, n)
		}
		for e := 0; e < n*2; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			k := Kind(1 + rng.Intn(2))
			m.Set(i, j, k)
			ref[i][j] = Max(ref[i][j], k)
		}
		m = closure(m)
		floydReference(ref)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.Kind(i, j) != ref[i][j] {
					t.Fatalf("iter %d: closure (%d,%d) = %v, ref %v", iter, i, j, m.Kind(i, j), ref[i][j])
				}
			}
		}
	}
}

func TestClosureChainSemantics(t *testing.T) {
	// a -> b (path), b -> c (str), c -> d (path):
	// d on a must be structural; c on a structural; b on a path... note
	// direction: Set(i, j) = i depends on j.
	m := NewMatrix(4)
	m.Set(1, 0, Path)
	m.Set(2, 1, Structural)
	m.Set(3, 2, Path)
	m = closure(m)
	if m.Kind(1, 0) != Path {
		t.Error("b on a must stay path")
	}
	if m.Kind(2, 0) != Structural {
		t.Error("c on a must be structural")
	}
	if m.Kind(3, 0) != Structural {
		t.Error("d on a must be structural")
	}
	if m.Kind(3, 1) != Structural {
		t.Error("d on b must be structural")
	}
	if m.Kind(3, 2) != Path {
		t.Error("d on c must stay path")
	}
}

func TestClosureIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 12
	m := NewMatrix(n)
	for e := 0; e < 30; e++ {
		m.Set(rng.Intn(n), rng.Intn(n), Kind(1+rng.Intn(2)))
	}
	m = closure(m)
	snapshot := m.Clone()
	m = closure(m)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m.Kind(i, j) != snapshot.Kind(i, j) {
				t.Fatal("closure not idempotent")
			}
		}
	}
}

func TestComputeOnGeneratedCircuit(t *testing.T) {
	g := netlist.Generate(netlist.DefaultGenConfig([]string{"a", "b", "c"}, 4), 5)
	// One internal flip-flop with a cone above the truth-table cap, so
	// exact mode still issues SAT calls.
	g.InternalFFs = append(g.InternalFFs, netlist.AddWideCone(g.N, 0, truthMaxLeaves+1))
	res := compute(g.N, g.InternalFFs, Exact)
	if res.Stats.FFsTotal != g.N.NumFFs() {
		t.Fatal("FFsTotal wrong")
	}
	if res.Stats.FFsDenoted != g.N.NumFFs()-len(g.InternalFFs) {
		t.Fatal("FFsDenoted wrong")
	}
	for _, k := range g.InternalFFs {
		if res.Denoted[k] {
			t.Fatal("internal FF marked denoted")
		}
		for j := 0; j < res.M.N(); j++ {
			if res.M.Kind(int(k), j) != None || res.M.Kind(j, int(k)) != None {
				t.Fatal("internal FF carries dependencies after bridging")
			}
		}
	}
	if res.Stats.SATCalls == 0 {
		t.Fatal("exact mode must issue SAT calls")
	}
	// Path entries are always a subset of structural entries.
	for i := 0; i < res.M.N(); i++ {
		p := res.M.PathDependsOn(i).Clone()
		p.AndNot(res.M.DependsOn(i))
		if p.Any() {
			t.Fatal("path not subset of structural")
		}
	}
}

func TestStructuralApproxDominatesExact(t *testing.T) {
	g := netlist.Generate(netlist.DefaultGenConfig([]string{"a", "b"}, 5), 8)
	exact := compute(g.N, g.InternalFFs, Exact)
	approx := compute(g.N, g.InternalFFs, StructuralApprox)
	if approx.Stats.SATCalls != 0 {
		t.Fatal("approx mode must not call SAT")
	}
	n := exact.M.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			e, a := exact.M.Kind(i, j), approx.M.Kind(i, j)
			// Approx treats every structural dep as path, so its path
			// relation over-approximates the exact one.
			if e == Path && a != Path {
				t.Fatalf("(%d,%d): exact path missing in approx", i, j)
			}
			if e != None && a == None {
				t.Fatalf("(%d,%d): approx lost dependency", i, j)
			}
		}
	}
	if approx.M.CountPath() < exact.M.CountPath() {
		t.Fatal("approx path count must dominate")
	}
}

// TestComputeAgainstSimulation spot-checks that a Path-classified
// multi-cycle dependency is real: simulating the circuit from two
// states differing only in the source eventually produces a difference
// somewhere (weak check), and that None entries never propagate.
func TestComputeMatchesOneCycleSimulation(t *testing.T) {
	g := netlist.Generate(netlist.DefaultGenConfig([]string{"a", "b"}, 3), 13)
	n := g.N
	res := compute(n, nil, Exact) // no bridging: check 1-cycle entries
	rng := rand.New(rand.NewSource(2))
	// For every 1-cycle functional dep (b on a), find by random search a
	// witness state where flipping a flips b's next state.
	for b := 0; b < n.NumFFs(); b++ {
		for a := 0; a < n.NumFFs(); a++ {
			if res.OneCycle.Kind(b, a) != Path {
				continue
			}
			found := false
			for trial := 0; trial < 2000 && !found; trial++ {
				sim := netlist.NewSimulator(n)
				for f := 0; f < n.NumFFs(); f++ {
					sim.SetFF(netlist.FFID(f), rng.Intn(2) == 1)
				}
				for i := 0; i < len(n.Inputs); i++ {
					sim.SetInput(i, rng.Intn(2) == 1)
				}
				sim.SetFF(netlist.FFID(a), false)
				sim.Eval()
				v0 := sim.NodeValue(n.FFs[b].D)
				sim.SetFF(netlist.FFID(a), true)
				sim.Eval()
				v1 := sim.NodeValue(n.FFs[b].D)
				if v0 != v1 {
					found = true
				}
			}
			if !found {
				t.Fatalf("no simulation witness for functional dep of %d on %d", b, a)
			}
		}
	}
}

func BenchmarkOneCycleExact(b *testing.B) {
	g := netlist.Generate(netlist.DefaultGenConfig([]string{"a", "b", "c", "d"}, 8), 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st Stats
		oneCycleMatrix(g.N, Exact, &st)
	}
}

func BenchmarkClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 400
	base := NewMatrix(n)
	for e := 0; e < n*4; e++ {
		base.Set(rng.Intn(n), rng.Intn(n), Kind(1+rng.Intn(2)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := base.Clone()
		m = closure(m)
	}
}

func TestFunctionalWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for iter := 0; iter < 40; iter++ {
		g := netlist.Generate(netlist.DefaultGenConfig([]string{"a", "b"}, 3), rng.Int63())
		n := g.N
		for b := 0; b < n.NumFFs() && checked < 200; b++ {
			root := n.FFs[b].D
			for _, a := range n.SupportFFs(root) {
				leaf := n.FFs[a].Node
				w, ok := FunctionalWitness(n, root, leaf)
				if ok != FunctionalDepends(n, root, leaf) {
					t.Fatal("witness presence disagrees with FunctionalDepends")
				}
				if ok {
					if !CheckWitness(n, w) {
						t.Fatalf("witness does not check out for root %d leaf %d", root, leaf)
					}
					checked++
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d witnesses checked", checked)
	}
}

func TestFunctionalWitnessAbsent(t *testing.T) {
	// Masked reconvergence: no witness exists for the masked leaf.
	n := netlist.New()
	m := n.AddModule("m")
	s := n.AddFF("s", m)
	c := n.AddFF("c", m)
	inner := n.AddGate(netlist.Xor, n.FFs[s].Node, n.FFs[c].Node)
	outer := n.AddGate(netlist.Xor, n.FFs[s].Node, inner)
	if _, ok := FunctionalWitness(n, outer, n.FFs[s].Node); ok {
		t.Fatal("masked leaf must have no witness")
	}
	w, ok := FunctionalWitness(n, outer, n.FFs[c].Node)
	if !ok || !CheckWitness(n, w) {
		t.Fatal("carrier leaf needs a valid witness")
	}
}

func TestFunctionalWitnessNotInCone(t *testing.T) {
	n := netlist.New()
	m := n.AddModule("m")
	a := n.AddFF("a", m)
	b := n.AddFF("b", m)
	d := n.AddGate(netlist.Buf, n.FFs[a].Node)
	if _, ok := FunctionalWitness(n, d, n.FFs[b].Node); ok {
		t.Fatal("leaf outside the cone cannot have a witness")
	}
}

func TestCombineAlgebraProperties(t *testing.T) {
	kinds := []Kind{None, Structural, Path}
	for _, a := range kinds {
		for _, b := range kinds {
			// Combine is commutative; Max is commutative and idempotent.
			if Combine(a, b) != Combine(b, a) {
				t.Fatalf("Combine not commutative at (%v,%v)", a, b)
			}
			if Max(a, b) != Max(b, a) {
				t.Fatalf("Max not commutative at (%v,%v)", a, b)
			}
			for _, c := range kinds {
				if Combine(Combine(a, b), c) != Combine(a, Combine(b, c)) {
					t.Fatalf("Combine not associative at (%v,%v,%v)", a, b, c)
				}
				if Max(Max(a, b), c) != Max(a, Max(b, c)) {
					t.Fatalf("Max not associative at (%v,%v,%v)", a, b, c)
				}
				// Combine distributes over Max (semiring law).
				if Combine(a, Max(b, c)) != Max(Combine(a, b), Combine(a, c)) {
					t.Fatalf("distributivity fails at (%v,%v,%v)", a, b, c)
				}
			}
		}
		if Max(a, a) != a {
			t.Fatalf("Max not idempotent at %v", a)
		}
		// Path is the multiplicative identity; None annihilates.
		if Combine(a, Path) != a || Combine(a, None) != None {
			t.Fatalf("identity/annihilator fail at %v", a)
		}
	}
}

func TestClosureMonotone(t *testing.T) {
	// Adding an edge never removes closure entries.
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 20; iter++ {
		n := 6 + rng.Intn(6)
		m1 := NewMatrix(n)
		for e := 0; e < n; e++ {
			m1.Set(rng.Intn(n), rng.Intn(n), Kind(1+rng.Intn(2)))
		}
		m2 := m1.Clone()
		m2.Set(rng.Intn(n), rng.Intn(n), Path)
		m1 = closure(m1)
		m2 = closure(m2)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m2.Kind(i, j) < m1.Kind(i, j) {
					t.Fatalf("closure not monotone at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestClosureKBounded(t *testing.T) {
	// Chain 0 <- 1 <- 2 <- 3 <- 4 (Set(i, j): i depends on j).
	m := NewMatrix(5)
	for i := 1; i < 5; i++ {
		m.Set(i, i-1, Path)
	}
	k2 := m.Clone()
	closureK(k2, 2)
	if k2.Kind(2, 0) != Path {
		t.Fatal("2-chain missing at k=2")
	}
	if k2.Kind(3, 0) != None {
		t.Fatal("3-chain must be absent at k=2")
	}
	k3 := m.Clone()
	closureK(k3, 3)
	if k3.Kind(3, 0) != Path || k3.Kind(4, 0) != None {
		t.Fatalf("k=3 bounds wrong: %v %v", k3.Kind(3, 0), k3.Kind(4, 0))
	}
	full := m.Clone()
	closureK(full, 10)
	if full.Kind(4, 0) != Path {
		t.Fatal("full chain missing at large k")
	}
}

func TestClosureKConvergesToClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 20; iter++ {
		n := 4 + rng.Intn(8)
		m := NewMatrix(n)
		for e := 0; e < 2*n; e++ {
			m.Set(rng.Intn(n), rng.Intn(n), Kind(1+rng.Intn(2)))
		}
		bounded := m.Clone()
		closureK(bounded, n+1) // chains longer than n repeat a node
		fixpoint := m.Clone()
		fixpoint = closure(fixpoint)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if bounded.Kind(i, j) != fixpoint.Kind(i, j) {
					t.Fatalf("iter %d: closureK(n+1) != Closure at (%d,%d)", iter, i, j)
				}
			}
		}
	}
}

func TestClosureKMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 8
	m := NewMatrix(n)
	for e := 0; e < 2*n; e++ {
		m.Set(rng.Intn(n), rng.Intn(n), Kind(1+rng.Intn(2)))
	}
	prev := m.Clone()
	closureK(prev, 1)
	for k := 2; k <= 6; k++ {
		cur := m.Clone()
		closureK(cur, k)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if cur.Kind(i, j) < prev.Kind(i, j) {
					t.Fatalf("k=%d lost entry (%d,%d)", k, i, j)
				}
			}
		}
		prev = cur
	}
}
