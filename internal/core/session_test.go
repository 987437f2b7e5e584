package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/exp"
	"repro/internal/hybrid"
	"repro/internal/paperex"
	"repro/internal/rsn"
)

// TestReportAnalysisSeedsDeltas checks that the analysis a Secure run
// reports is a usable incremental session: edit scripts applied with
// exp.SecureDelta against it reach the same outcome as against a
// freshly built analysis, on wiring-only and structural scripts alike.
func TestReportAnalysisSeedsDeltas(t *testing.T) {
	e := paperex.New()
	opts := core.Options{Mode: dep.Exact}
	rep, err := core.Secure(e.Network.Clone(), e.Circuit, e.Internal, e.Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analysis == nil {
		t.Fatal("Secure reported no analysis")
	}
	fresh, err := hybrid.NewAnalysisOpts(e.Network, e.Circuit, e.Internal, e.Spec, dep.Exact, opts.EngineOptions())
	if err != nil {
		t.Fatal(err)
	}

	scripts := []*rsn.EditScript{{Ops: []rsn.EditOp{
		{Op: rsn.OpAddRegister, Pin: "R0", Src: "SI", Name: "nx", Len: 2, Module: 0},
	}}}
	for reg := range e.Network.Registers {
		scripts = append(scripts, &rsn.EditScript{Ops: []rsn.EditOp{
			{Op: rsn.OpCutReconnect, Pin: rsn.Reg(reg).String(), Src: rsn.ScanIn.String()},
		}})
	}
	compared := 0
	for _, scr := range scripts {
		got, gerr := exp.SecureDelta("test", "paperex", rep.Analysis, e.Network, scr, opts)
		want, werr := exp.SecureDelta("test", "paperex", fresh, e.Network, scr, opts)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%v: error %v from the reported analysis, %v from a fresh one", scr.Ops, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		g, w := got.Core, want.Core
		if got.Structural != want.Structural || g.Secured != w.Secured || g.InsecureLogic != w.InsecureLogic ||
			g.ViolatingRegsBefore != w.ViolatingRegsBefore ||
			!reflect.DeepEqual(g.PureChangeList, w.PureChangeList) ||
			!reflect.DeepEqual(g.HybridChangeList, w.HybridChangeList) {
			t.Fatalf("%v: outcomes diverge:\n reported %+v\n fresh    %+v", scr.Ops, g, w)
		}
		compared++
	}
	if compared < 2 {
		t.Fatalf("only %d scripts applied; the test exercises too little", compared)
	}
}
