package pure

import (
	"fmt"
	"sort"

	"repro/internal/hybrid"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// This file keeps the former from-scratch pure-path engine as the
// differential reference for hybrid.ResolvePure: every round
// re-propagates the whole network in ElementTopoOrder, and every
// candidate trial is a deep clone propagated from scratch.

// refPropagation holds attributes keyed by Network.RefIndex.
type refPropagation struct {
	nw        *rsn.Network
	in, out   []secspec.CatSet
	Violating []int
}

func (p *refPropagation) In(r rsn.Ref) secspec.CatSet  { return p.in[p.nw.RefIndex(r)] }
func (p *refPropagation) Out(r rsn.Ref) secspec.CatSet { return p.out[p.nw.RefIndex(r)] }

// referencePropagate is the single forward traversal in topological
// order. It panics on a cyclic network (ElementTopoOrder does).
func referencePropagate(nw *rsn.Network, spec *secspec.Spec) *refPropagation {
	all := secspec.AllCats(spec.NumCategories)
	n := nw.NumRefs()
	p := &refPropagation{
		nw:  nw,
		in:  make([]secspec.CatSet, n),
		out: make([]secspec.CatSet, n),
	}
	srcOut := func(src rsn.Ref) secspec.CatSet {
		if src == rsn.NoRef || !src.IsValid() {
			return all
		}
		return p.out[nw.RefIndex(src)]
	}
	for _, r := range nw.ElementTopoOrder() {
		idx := nw.RefIndex(r)
		switch r.Kind {
		case rsn.KScanIn:
			p.in[idx] = all
			p.out[idx] = all
		case rsn.KRegister:
			reg := &nw.Registers[r.ID]
			in := srcOut(reg.In)
			p.in[idx] = in
			if !in.Has(spec.Trust[reg.Module]) {
				p.Violating = append(p.Violating, int(r.ID))
			}
			p.out[idx] = in & spec.Accepts[reg.Module]
		case rsn.KMux:
			in := all
			for _, src := range nw.Muxes[r.ID].Inputs {
				in &= srcOut(src)
			}
			p.in[idx] = in
			p.out[idx] = in
		case rsn.KScanOut:
			in := srcOut(nw.OutSrc)
			p.in[idx] = in
			p.out[idx] = in
		}
	}
	sort.Ints(p.Violating)
	return p
}

// referenceResolve is the former Resolve: a full propagation per round
// and per candidate trial.
func referenceResolve(nw *rsn.Network, spec *secspec.Spec) (*hybrid.Result, error) {
	res := &hybrid.Result{}
	first := true
	for round := 0; ; round++ {
		p := referencePropagate(nw, spec)
		if first {
			res.ViolationsBefore = len(p.Violating)
			first = false
		}
		if len(p.Violating) == 0 {
			return res, nil
		}
		y := p.Violating[0]
		x, ok := hybrid.FindCulprit(nw, spec, y, nw.PurePredecessors(y, new(rsn.Marks)))
		if !ok {
			return res, fmt.Errorf("pure: register R%d violates but no culprit found", y)
		}
		// Past the resolver's round bound only the scan-in fallback is
		// tried.
		ch, err := referenceResolveOne(nw, spec, p, x, y, round >= 4*len(nw.Registers)+16)
		if err != nil {
			return res, err
		}
		res.Changes = append(res.Changes, ch)
	}
}

func referenceResolveOne(nw *rsn.Network, spec *secspec.Spec, p *refPropagation, x, y int, fallbackOnly bool) (rsn.Change, error) {
	type candidate struct {
		pin    rsn.Sink
		newSrc rsn.Ref
	}
	pin := rsn.Sink{Elem: rsn.Reg(y), Idx: 0}
	oldSrc := nw.Registers[y].In

	var cands []candidate
	if !fallbackOnly {
		const maxPredCandidates = 6
		preds := nw.PurePredecessors(y, new(rsn.Marks))
		ymod := nw.Registers[y].Module
		for _, pr := range preds {
			src := rsn.Reg(pr)
			if src == oldSrc {
				continue
			}
			if p.Out(src).Has(spec.Trust[ymod]) {
				cands = append(cands, candidate{pin, src})
				if len(cands) >= maxPredCandidates {
					break
				}
			}
		}
	}
	cands = append(cands, candidate{pin, rsn.ScanIn})

	before := len(p.Violating)
	type scored struct {
		c     candidate
		cost  int
		after int
		trial *rsn.Network
	}
	var results []scored
	for _, c := range cands {
		trial := nw.Clone()
		muxes, err := trial.CutAndReconnect(c.pin, c.newSrc)
		if err != nil {
			continue
		}
		tp := referencePropagate(trial, spec)
		if containsInt(tp.Violating, y) && trial.PureReaches(rsn.Reg(x), rsn.Reg(y)) {
			continue
		}
		if len(tp.Violating) > before {
			continue
		}
		results = append(results, scored{c, 1 + muxes, len(tp.Violating), trial})
	}
	var best *scored
	for {
		best = nil
		for i := range results {
			s := &results[i]
			if s.trial == nil {
				continue
			}
			if best == nil || s.cost < best.cost || (s.cost == best.cost && s.after < best.after) {
				best = s
			}
		}
		if best == nil || best.trial.Validate() == nil {
			break
		}
		best.trial = nil
	}
	if best == nil {
		return rsn.Change{}, fmt.Errorf("pure: no valid candidate to separate R%d from R%d", x, y)
	}
	muxes, err := nw.CutAndReconnect(best.c.pin, best.c.newSrc)
	if err != nil {
		return rsn.Change{}, err
	}
	return rsn.Change{
		Cut:      best.c.pin,
		OldSrc:   oldSrc,
		NewSrc:   best.c.newSrc,
		NewMuxes: muxes,
	}, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
