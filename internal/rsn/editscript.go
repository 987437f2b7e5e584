package rsn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// Edit operation kinds. An EditScript is an ordered list of these,
// applied front to back against a base network.
const (
	// OpCutReconnect rewires one input pin to a new source and, when
	// the cut leaves the old source without a consumer, re-attaches the
	// separated segment per Section III-D (CutAndReconnect). It errors
	// if the pin already has the requested source.
	OpCutReconnect = "cut-reconnect"
	// OpConnect rewires one input pin with no re-attachment of the old
	// source. The resulting network must still validate, so OpConnect
	// is for edits that keep every segment reachable on their own.
	OpConnect = "connect"
	// OpAddRegister adds a scan register fed by Src and splices it into
	// the pin named by Pin/PinIdx (the pin's previous source becomes
	// unused and is re-attached if it dangles).
	OpAddRegister = "add-register"
)

// EditOp is one edit against the current network state. Pin names the
// rewired input pin: the owning element as a reference string ("R3",
// "M1" or "SO") plus PinIdx for mux pins (must be 0 otherwise). Src is
// the new source reference ("R2", "M0" or "SI"). Name, Len and Module
// describe the register added by OpAddRegister.
type EditOp struct {
	Op     string `json:"op"`
	Pin    string `json:"pin,omitempty"`
	PinIdx int    `json:"pin_idx,omitempty"`
	Src    string `json:"src,omitempty"`
	Name   string `json:"name,omitempty"`
	Len    int    `json:"len,omitempty"`
	Module int    `json:"module,omitempty"`
}

// EditScript is an ordered edit sequence against a named base network:
// the unit of an incremental analysis submission. Scripts are
// content-addressed through AppendCanonical, so two scripts that
// canonicalize identically share one derived analysis key.
type EditScript struct {
	// Base, when non-empty, names the network the script applies to;
	// Apply rejects a mismatching network.
	Base string   `json:"base,omitempty"`
	Ops  []EditOp `json:"ops"`
}

// ParseRef parses the reference syntax used by edit scripts: "SI",
// "SO", "R<id>" or "M<id>" (case-insensitive element letter, decimal
// non-negative id).
func ParseRef(s string) (Ref, error) {
	switch s {
	case "SI", "si":
		return ScanIn, nil
	case "SO", "so":
		return ScanOut, nil
	}
	if len(s) >= 2 {
		var kind ElemKind
		switch s[0] {
		case 'R', 'r':
			kind = KRegister
		case 'M', 'm':
			kind = KMux
		default:
			return NoRef, fmt.Errorf("rsn: bad element reference %q", s)
		}
		id, err := strconv.Atoi(s[1:])
		if err != nil || id < 0 {
			return NoRef, fmt.Errorf("rsn: bad element reference %q", s)
		}
		return Ref{Kind: kind, ID: int32(id)}, nil
	}
	return NoRef, fmt.Errorf("rsn: bad element reference %q", s)
}

// Canonical validates the script's static shape and returns a
// normalized copy: op kinds lower-cased, references upper-case
// normalized via ParseRef round-trip, PinIdx zeroed for non-mux pins,
// add-register fields cleared on other ops. Index ranges are checked
// at Apply time, against the network state the op actually sees.
func (s *EditScript) Canonical() (*EditScript, error) {
	cp := &EditScript{Base: s.Base, Ops: make([]EditOp, len(s.Ops))}
	for i := range s.Ops {
		op := s.Ops[i]
		op.Op = strings.ToLower(strings.TrimSpace(op.Op))
		wrap := func(err error) error {
			return fmt.Errorf("rsn: edit op %d (%s): %w", i, op.Op, err)
		}
		switch op.Op {
		case OpCutReconnect, OpConnect, OpAddRegister:
		default:
			return nil, fmt.Errorf("rsn: edit op %d: unknown op %q", i, op.Op)
		}
		pin, err := ParseRef(op.Pin)
		if err != nil {
			return nil, wrap(fmt.Errorf("pin: %w", err))
		}
		switch pin.Kind {
		case KRegister, KScanOut:
			if op.PinIdx != 0 {
				return nil, wrap(fmt.Errorf("pin %s has a single input, pin_idx must be 0", pin))
			}
		case KMux:
			if op.PinIdx < 0 {
				return nil, wrap(fmt.Errorf("pin_idx %d negative", op.PinIdx))
			}
		default:
			return nil, wrap(fmt.Errorf("pin %s is not rewirable", pin))
		}
		op.Pin = pin.String()
		src, err := ParseRef(op.Src)
		if err != nil {
			return nil, wrap(fmt.Errorf("src: %w", err))
		}
		if src.Kind == KScanOut {
			return nil, wrap(fmt.Errorf("src SO cannot drive a pin"))
		}
		op.Src = src.String()
		if op.Op == OpAddRegister {
			if op.Name == "" {
				return nil, wrap(fmt.Errorf("add-register needs a name"))
			}
			if op.Len <= 0 {
				return nil, wrap(fmt.Errorf("add-register length %d must be positive", op.Len))
			}
			if op.Module < 0 {
				return nil, wrap(fmt.Errorf("add-register module %d negative", op.Module))
			}
		} else {
			op.Name, op.Len, op.Module = "", 0, 0
		}
		cp.Ops[i] = op
	}
	return cp, nil
}

// Validate checks the script's static shape (op kinds, reference
// syntax, add-register fields). Range errors against a concrete
// network surface from Apply.
func (s *EditScript) Validate() error {
	_, err := s.Canonical()
	return err
}

// AddsRegisters reports whether the script grows the register set —
// the case an existing Analysis index space cannot absorb (see
// hybrid.ErrStructuralDelta).
func (s *EditScript) AddsRegisters() bool {
	for i := range s.Ops {
		if strings.EqualFold(strings.TrimSpace(s.Ops[i].Op), OpAddRegister) {
			return true
		}
	}
	return false
}

// Apply canonicalizes the script and applies it to a clone of base,
// returning the derived network. Ops run in order, each seeing the
// network state left by its predecessors; the result must Validate.
// base is never mutated.
func (s *EditScript) Apply(base *Network) (*Network, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	if c.Base != "" && c.Base != base.Name {
		return nil, fmt.Errorf("rsn: edit script targets network %q, got %q", c.Base, base.Name)
	}
	nw := base.Clone()
	for i := range c.Ops {
		if err := nw.applyEdit(c.Ops[i]); err != nil {
			return nil, fmt.Errorf("rsn: edit op %d (%s): %w", i, c.Ops[i].Op, err)
		}
	}
	if err := nw.Validate(); err != nil {
		return nil, fmt.Errorf("rsn: edited network invalid: %w", err)
	}
	return nw, nil
}

// applyEdit applies one canonicalized op in place, checking references
// against the current element ranges.
func (nw *Network) applyEdit(op EditOp) error {
	pinRef, _ := ParseRef(op.Pin)
	src, _ := ParseRef(op.Src)
	if err := nw.checkRange(pinRef); err != nil {
		return fmt.Errorf("pin: %w", err)
	}
	if err := nw.checkRange(src); err != nil {
		return fmt.Errorf("src: %w", err)
	}
	if pinRef.Kind == KMux && op.PinIdx >= len(nw.Muxes[pinRef.ID].Inputs) {
		return fmt.Errorf("pin %s input %d out of range (mux has %d inputs)",
			pinRef, op.PinIdx, len(nw.Muxes[pinRef.ID].Inputs))
	}
	pin := Sink{Elem: pinRef, Idx: op.PinIdx}
	switch op.Op {
	case OpCutReconnect:
		_, err := nw.CutAndReconnect(pin, src)
		return err
	case OpConnect:
		nw.SetSink(pin, src)
		return nil
	case OpAddRegister:
		if op.Module >= len(nw.Modules) {
			return fmt.Errorf("module %d out of range (network has %d modules)", op.Module, len(nw.Modules))
		}
		old := nw.SinkSource(pin)
		id := nw.AddRegister(op.Name, op.Len, op.Module)
		nw.Connect(id, src)
		nw.SetSink(pin, Reg(id))
		if (old.Kind == KRegister || old.Kind == KMux) && old.IsValid() && !nw.drives(old) {
			nw.reattach(old, &Rewiring{})
		}
		return nil
	}
	return fmt.Errorf("unknown op %q", op.Op)
}

// checkRange verifies an element reference exists in the network.
func (nw *Network) checkRange(r Ref) error {
	switch r.Kind {
	case KRegister:
		if int(r.ID) >= len(nw.Registers) {
			return fmt.Errorf("%s out of range (network has %d registers)", r, len(nw.Registers))
		}
	case KMux:
		if int(r.ID) >= len(nw.Muxes) {
			return fmt.Errorf("%s out of range (network has %d muxes)", r, len(nw.Muxes))
		}
	}
	return nil
}

// AppendCanonical appends the script's canonical encoding to the
// hasher: a framed section with base name, op count, and every op's
// fields in fixed order. The encoding depends only on canonicalized
// field values — never on JSON field order — so it is the stable
// identity used to derive delta analysis keys. Canonicalize first
// (Canonical or ParseEditScript) for a normalization-independent hash.
func (s *EditScript) AppendCanonical(h *netlist.Hasher) {
	h.Section("rsn.editscript")
	h.Str(s.Base)
	h.List(len(s.Ops))
	for i := range s.Ops {
		op := &s.Ops[i]
		h.Str(op.Op)
		h.Str(op.Pin)
		h.Int(int64(op.PinIdx))
		h.Str(op.Src)
		h.Str(op.Name)
		h.Int(int64(op.Len))
		h.Int(int64(op.Module))
	}
}

// CanonicalHash returns the hex SHA-256 of the canonicalized script
// under the current netlist.CanonVersion.
func (s *EditScript) CanonicalHash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	h := netlist.NewHasher()
	c.AppendCanonical(h)
	return h.SumHex(), nil
}

// ParseEditScript decodes the JSON form of an edit script (unknown
// fields rejected) and returns its canonicalized, validated form.
func ParseEditScript(data []byte) (*EditScript, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s EditScript
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("rsn: parse edit script: %w", err)
	}
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	if len(c.Ops) == 0 {
		return nil, fmt.Errorf("rsn: edit script has no ops")
	}
	return c, nil
}
