package hybrid

import (
	"fmt"
	"strings"

	"repro/internal/rsn"
)

// FlowStep is one node on a violating data flow, annotated with how the
// data arrived there.
type FlowStep struct {
	// Node is the combined index of the flip-flop.
	Node int
	// Name is its human-readable name.
	Name string
	// Via describes the arriving edge: "" for the flow's origin,
	// "fixed" for register chains, capture/update links and circuit
	// logic, or "wiring Rx->Ry" for a reconfigurable inter-register
	// connection.
	Via string
}

// Explanation is a human-readable account of one security violation:
// the culprit whose data leaks, the victim it reaches, and the flow in
// between.
type Explanation struct {
	// Culprit and Target are combined indices; data of Culprit's
	// module functionally reaches Target, whose module may not see it.
	Culprit, Target int
	// CulpritModule and TargetModule are the module indices.
	CulpritModule, TargetModule int
	// Steps lists the flow from culprit to target.
	Steps []FlowStep
	// WiringHops counts the reconfigurable connections on the flow —
	// the places the resolution can cut.
	WiringHops int
}

// String renders the explanation as a one-line flow description.
func (e *Explanation) String() string {
	var sb strings.Builder
	for i, s := range e.Steps {
		if i > 0 {
			if strings.HasPrefix(s.Via, "wiring") {
				fmt.Fprintf(&sb, " ={%s}=> ", s.Via)
			} else {
				sb.WriteString(" -> ")
			}
		}
		sb.WriteString(s.Name)
	}
	return sb.String()
}

// Explain reconstructs the data flow behind a violation at node v under
// the network's current wiring. For flows carried by the fixed
// infrastructure alone it still returns the explanation, alongside an
// ErrInsecureLogic error.
func (a *Analysis) Explain(nw *rsn.Network, v int) (*Explanation, error) {
	culprit, chain, hops, err := a.flowChain(nw, v, new(chainScratch))
	if err != nil {
		if _, isLogic := err.(*ErrInsecureLogic); !isLogic || chain == nil {
			return nil, err
		}
	}
	e := &Explanation{
		Culprit:       culprit,
		Target:        v,
		CulpritModule: a.nodeModule[culprit],
		TargetModule:  a.nodeModule[v],
		WiringHops:    len(hops),
	}
	// Re-derive per-step wiring annotations: a step from the last
	// flip-flop of register r to bit 0 of register s is a wiring hop.
	for i, n := range chain {
		step := FlowStep{Node: n, Name: a.NodeName(n)}
		if i > 0 {
			step.Via = "fixed"
			prev := chain[i-1]
			if r, bit, ok := a.IsScanNode(n); ok && bit == 0 {
				if pr, pbit, pok := a.IsScanNode(prev); pok && pbit == a.regLen[pr]-1 && pr != r {
					step.Via = fmt.Sprintf("wiring R%d->R%d", pr, r)
				}
			}
		}
		e.Steps = append(e.Steps, step)
	}
	return e, err
}

// ExplainAll explains every current violation, in node order.
func (a *Analysis) ExplainAll(nw *rsn.Network) []*Explanation {
	var out []*Explanation
	for _, v := range a.Violations(nw) {
		if e, err := a.Explain(nw, v.Node); e != nil && (err == nil || isInsecureLogicErr(err)) {
			out = append(out, e)
		}
	}
	return out
}

func isInsecureLogicErr(err error) bool {
	_, ok := err.(*ErrInsecureLogic)
	return ok
}
