package icl

import (
	"fmt"
	"strconv"

	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// File is the parsed form of an ICL description before resolution.
type File struct {
	Name      string
	Modules   []ModuleDecl
	Registers []RegisterDecl
	Muxes     []MuxDecl
	ScanOut   RefDecl
	// Categories is the declared trust-category universe size, or 0 if
	// no "Categories n;" declaration was present.
	Categories int
}

// ModuleDecl is a module declaration, optionally annotated with the
// security attributes of Kochte et al.: a trust category and the set of
// accepted trust categories.
type ModuleDecl struct {
	Name string
	// Trust is the module's trust category, or -1 if unannotated.
	Trust int
	// Accepts lists the accepted categories; nil means unrestricted.
	Accepts []int
	Line    int
}

// RefDecl is an unresolved element reference.
type RefDecl struct {
	Kind rsn.ElemKind // KScanIn, KRegister or KMux
	Name string       // element name for registers and muxes
	Line int
}

// LinkDecl is a capture/update association of one scan flip-flop with a
// named circuit flip-flop.
type LinkDecl struct {
	Bit  int
	FF   string
	Line int
}

// RegisterDecl is an unresolved scan register declaration.
type RegisterDecl struct {
	Name    string
	Length  int
	In      RefDecl
	Module  string
	Capture []LinkDecl
	Update  []LinkDecl
	Line    int
}

// MuxDecl is an unresolved scan multiplexer declaration.
type MuxDecl struct {
	Name   string
	Inputs []RefDecl
	Line   int
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, fmt.Errorf("icl: line %d: expected %v, found %v %q", p.tok.line, k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tokIdent || p.tok.text != kw {
		return fmt.Errorf("icl: line %d: expected %q, found %q", p.tok.line, kw, p.tok.text)
	}
	return p.advance()
}

// Parse reads an ICL description into its unresolved form.
func Parse(src string) (*File, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	f := &File{ScanOut: RefDecl{Kind: rsn.KScanIn, Name: "", Line: 0}}
	scanOutSeen := false

	if err := p.expectKeyword("ScanNetwork"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokString)
	if err != nil {
		return nil, err
	}
	f.Name = name.text
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.tok.kind != tokRBrace {
		if p.tok.kind != tokIdent {
			return nil, fmt.Errorf("icl: line %d: expected declaration, found %v %q", p.tok.line, p.tok.kind, p.tok.text)
		}
		switch p.tok.text {
		case "Categories":
			if err := p.advance(); err != nil {
				return nil, err
			}
			n, err := p.expect(tokNumber)
			if err != nil {
				return nil, err
			}
			v, err := strconv.Atoi(n.text)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("icl: line %d: invalid category count %q", n.line, n.text)
			}
			f.Categories = v
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
		case "Module":
			md, err := p.parseModule()
			if err != nil {
				return nil, err
			}
			f.Modules = append(f.Modules, *md)
		case "ScanRegister":
			r, err := p.parseRegister()
			if err != nil {
				return nil, err
			}
			f.Registers = append(f.Registers, *r)
		case "ScanMux":
			m, err := p.parseMux()
			if err != nil {
				return nil, err
			}
			f.Muxes = append(f.Muxes, *m)
		case "ScanOutSource":
			if scanOutSeen {
				return nil, fmt.Errorf("icl: line %d: duplicate ScanOutSource", p.tok.line)
			}
			scanOutSeen = true
			if err := p.advance(); err != nil {
				return nil, err
			}
			ref, err := p.parseRef()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
			f.ScanOut = ref
		default:
			return nil, fmt.Errorf("icl: line %d: unknown declaration %q", p.tok.line, p.tok.text)
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEOF); err != nil {
		return nil, err
	}
	if !scanOutSeen {
		return nil, fmt.Errorf("icl: network %q lacks a ScanOutSource", f.Name)
	}
	return f, nil
}

// parseModule parses `Module "name";` or
// `Module "name" { Trust n; Accepts a, b, c; }`.
func (p *parser) parseModule() (*ModuleDecl, error) {
	md := &ModuleDecl{Trust: -1, Line: p.tok.line}
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.expect(tokString)
	if err != nil {
		return nil, err
	}
	md.Name = name.text
	if p.tok.kind == tokSemi {
		return md, p.advance()
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.tok.kind != tokRBrace {
		if p.tok.kind != tokIdent {
			return nil, fmt.Errorf("icl: line %d: expected module attribute", p.tok.line)
		}
		switch p.tok.text {
		case "Trust":
			if err := p.advance(); err != nil {
				return nil, err
			}
			n, err := p.expect(tokNumber)
			if err != nil {
				return nil, err
			}
			v, err := strconv.Atoi(n.text)
			if err != nil {
				return nil, fmt.Errorf("icl: line %d: invalid trust %q", n.line, n.text)
			}
			md.Trust = v
		case "Accepts":
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				n, err := p.expect(tokNumber)
				if err != nil {
					return nil, err
				}
				v, err := strconv.Atoi(n.text)
				if err != nil {
					return nil, fmt.Errorf("icl: line %d: invalid category %q", n.line, n.text)
				}
				md.Accepts = append(md.Accepts, v)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("icl: line %d: unknown module attribute %q", p.tok.line, p.tok.text)
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
	}
	return md, p.advance()
}

func (p *parser) parseRef() (RefDecl, error) {
	line := p.tok.line
	if p.tok.kind != tokIdent {
		return RefDecl{}, fmt.Errorf("icl: line %d: expected reference, found %v", line, p.tok.kind)
	}
	switch p.tok.text {
	case "SI":
		return RefDecl{Kind: rsn.KScanIn, Line: line}, p.advance()
	case "Register":
		if err := p.advance(); err != nil {
			return RefDecl{}, err
		}
		n, err := p.expect(tokString)
		if err != nil {
			return RefDecl{}, err
		}
		return RefDecl{Kind: rsn.KRegister, Name: n.text, Line: line}, nil
	case "Mux":
		if err := p.advance(); err != nil {
			return RefDecl{}, err
		}
		n, err := p.expect(tokString)
		if err != nil {
			return RefDecl{}, err
		}
		return RefDecl{Kind: rsn.KMux, Name: n.text, Line: line}, nil
	}
	return RefDecl{}, fmt.Errorf("icl: line %d: expected SI, Register or Mux, found %q", line, p.tok.text)
}

func (p *parser) parseRegister() (*RegisterDecl, error) {
	r := &RegisterDecl{Line: p.tok.line, Length: -1, In: RefDecl{Kind: rsn.KScanIn, Name: "\x00unset"}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.expect(tokString)
	if err != nil {
		return nil, err
	}
	r.Name = name.text
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	inSeen := false
	for p.tok.kind != tokRBrace {
		if p.tok.kind != tokIdent {
			return nil, fmt.Errorf("icl: line %d: expected register item", p.tok.line)
		}
		switch p.tok.text {
		case "Length":
			if err := p.advance(); err != nil {
				return nil, err
			}
			n, err := p.expect(tokNumber)
			if err != nil {
				return nil, err
			}
			v, err := strconv.Atoi(n.text)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("icl: line %d: invalid register length %q", n.line, n.text)
			}
			r.Length = v
		case "ScanInSource":
			if err := p.advance(); err != nil {
				return nil, err
			}
			ref, err := p.parseRef()
			if err != nil {
				return nil, err
			}
			r.In = ref
			inSeen = true
		case "Module":
			if err := p.advance(); err != nil {
				return nil, err
			}
			m, err := p.expect(tokString)
			if err != nil {
				return nil, err
			}
			r.Module = m.text
		case "CaptureSource", "UpdateSink":
			kw := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			n, err := p.expect(tokNumber)
			if err != nil {
				return nil, err
			}
			bit, err := strconv.Atoi(n.text)
			if err != nil || bit < 0 {
				return nil, fmt.Errorf("icl: line %d: invalid bit index %q", n.line, n.text)
			}
			ff, err := p.expect(tokString)
			if err != nil {
				return nil, err
			}
			l := LinkDecl{Bit: bit, FF: ff.text, Line: n.line}
			if kw == "CaptureSource" {
				r.Capture = append(r.Capture, l)
			} else {
				r.Update = append(r.Update, l)
			}
		default:
			return nil, fmt.Errorf("icl: line %d: unknown register item %q", p.tok.line, p.tok.text)
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	if r.Length <= 0 {
		return nil, fmt.Errorf("icl: line %d: register %q lacks a Length", r.Line, r.Name)
	}
	if !inSeen {
		return nil, fmt.Errorf("icl: line %d: register %q lacks a ScanInSource", r.Line, r.Name)
	}
	for _, l := range append(append([]LinkDecl{}, r.Capture...), r.Update...) {
		if l.Bit >= r.Length {
			return nil, fmt.Errorf("icl: line %d: bit %d out of range for register %q of length %d", l.Line, l.Bit, r.Name, r.Length)
		}
	}
	return r, nil
}

func (p *parser) parseMux() (*MuxDecl, error) {
	m := &MuxDecl{Line: p.tok.line}
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.expect(tokString)
	if err != nil {
		return nil, err
	}
	m.Name = name.text
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.tok.kind != tokRBrace {
		if err := p.expectKeyword("Input"); err != nil {
			return nil, err
		}
		ref, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		m.Inputs = append(m.Inputs, ref)
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	if len(m.Inputs) == 0 {
		return nil, fmt.Errorf("icl: line %d: mux %q has no inputs", m.Line, m.Name)
	}
	return m, nil
}

// Build resolves a parsed file into a scan network. lookupFF resolves
// circuit flip-flop names referenced by CaptureSource/UpdateSink; it
// may be nil, in which case such references are an error.
func Build(f *File, lookupFF func(string) (netlist.FFID, bool)) (*rsn.Network, error) {
	nw := rsn.New(f.Name)
	modIdx := map[string]int{}
	for _, m := range f.Modules {
		if _, dup := modIdx[m.Name]; dup {
			return nil, fmt.Errorf("icl: line %d: duplicate module %q", m.Line, m.Name)
		}
		modIdx[m.Name] = nw.AddModule(m.Name)
	}
	regIdx := map[string]int{}
	muxIdx := map[string]int{}
	for _, r := range f.Registers {
		if _, dup := regIdx[r.Name]; dup {
			return nil, fmt.Errorf("icl: line %d: duplicate register %q", r.Line, r.Name)
		}
		mod := 0
		if r.Module != "" {
			mi, ok := modIdx[r.Module]
			if !ok {
				return nil, fmt.Errorf("icl: line %d: register %q references unknown module %q", r.Line, r.Name, r.Module)
			}
			mod = mi
		} else if len(f.Modules) == 0 {
			// Implicit default module.
			mod = nw.AddModule("default")
			modIdx["default"] = mod
			f.Modules = append(f.Modules, ModuleDecl{Name: "default", Trust: -1})
		}
		regIdx[r.Name] = nw.AddRegister(r.Name, r.Length, mod)
	}
	for _, m := range f.Muxes {
		if _, dup := muxIdx[m.Name]; dup {
			return nil, fmt.Errorf("icl: line %d: duplicate mux %q", m.Line, m.Name)
		}
		if _, dup := regIdx[m.Name]; dup {
			return nil, fmt.Errorf("icl: line %d: mux %q collides with a register name", m.Line, m.Name)
		}
		muxIdx[m.Name] = nw.AddMux(m.Name)
	}
	resolve := func(r RefDecl) (rsn.Ref, error) {
		switch r.Kind {
		case rsn.KScanIn:
			return rsn.ScanIn, nil
		case rsn.KRegister:
			id, ok := regIdx[r.Name]
			if !ok {
				return rsn.NoRef, fmt.Errorf("icl: line %d: unknown register %q", r.Line, r.Name)
			}
			return rsn.Reg(id), nil
		case rsn.KMux:
			id, ok := muxIdx[r.Name]
			if !ok {
				return rsn.NoRef, fmt.Errorf("icl: line %d: unknown mux %q", r.Line, r.Name)
			}
			return rsn.Mx(id), nil
		}
		return rsn.NoRef, fmt.Errorf("icl: line %d: unresolvable reference", r.Line)
	}
	for _, r := range f.Registers {
		src, err := resolve(r.In)
		if err != nil {
			return nil, err
		}
		id := regIdx[r.Name]
		nw.Connect(id, src)
		for _, l := range r.Capture {
			if lookupFF == nil {
				return nil, fmt.Errorf("icl: line %d: CaptureSource %q requires a circuit binding", l.Line, l.FF)
			}
			ff, ok := lookupFF(l.FF)
			if !ok {
				return nil, fmt.Errorf("icl: line %d: unknown circuit flip-flop %q", l.Line, l.FF)
			}
			nw.SetCapture(id, l.Bit, ff)
		}
		for _, l := range r.Update {
			if lookupFF == nil {
				return nil, fmt.Errorf("icl: line %d: UpdateSink %q requires a circuit binding", l.Line, l.FF)
			}
			ff, ok := lookupFF(l.FF)
			if !ok {
				return nil, fmt.Errorf("icl: line %d: unknown circuit flip-flop %q", l.Line, l.FF)
			}
			nw.SetUpdate(id, l.Bit, ff)
		}
	}
	for _, m := range f.Muxes {
		id := muxIdx[m.Name]
		for _, in := range m.Inputs {
			src, err := resolve(in)
			if err != nil {
				return nil, err
			}
			nw.Muxes[id].Inputs = append(nw.Muxes[id].Inputs, src)
		}
	}
	out, err := resolve(f.ScanOut)
	if err != nil {
		return nil, err
	}
	nw.ConnectOut(out)
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	return nw, nil
}

// ParseNetwork parses and resolves in one step.
func ParseNetwork(src string, lookupFF func(string) (netlist.FFID, bool)) (*rsn.Network, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Build(f, lookupFF)
}

// SpecFromFile extracts the security specification from a parsed
// file's module annotations. The category universe size comes from the
// "Categories" declaration or, absent one, from the largest category
// mentioned. It returns nil if no module carries annotations.
func SpecFromFile(f *File) (*secspec.Spec, error) {
	annotated := false
	maxCat := 0
	for _, m := range f.Modules {
		if m.Trust >= 0 || m.Accepts != nil {
			annotated = true
		}
		if m.Trust > maxCat {
			maxCat = m.Trust
		}
		for _, c := range m.Accepts {
			if c > maxCat {
				maxCat = c
			}
		}
	}
	if !annotated {
		return nil, nil
	}
	nCats := f.Categories
	if nCats == 0 {
		nCats = maxCat + 1
	}
	if maxCat >= nCats {
		return nil, fmt.Errorf("icl: category %d exceeds declared universe of %d", maxCat, nCats)
	}
	if nCats > secspec.MaxCategories {
		return nil, fmt.Errorf("icl: %d categories exceed the maximum of %d", nCats, secspec.MaxCategories)
	}
	spec := secspec.New(len(f.Modules), nCats)
	for i, m := range f.Modules {
		if m.Trust >= 0 {
			spec.SetTrust(i, secspec.Category(m.Trust))
		}
		if m.Accepts != nil {
			acc := secspec.CatSet(0)
			for _, c := range m.Accepts {
				acc = acc.With(secspec.Category(c))
			}
			spec.SetAccepts(i, acc)
		}
	}
	return spec, nil
}

// ParseNetworkAndSpec parses a description carrying security
// annotations, returning both the network and the specification (nil
// if the file has no annotations).
func ParseNetworkAndSpec(src string, lookupFF func(string) (netlist.FFID, bool)) (*rsn.Network, *secspec.Spec, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return buildWithSpec(f, lookupFF)
}

// buildWithSpec resolves a parsed file into its network and embedded
// specification.
func buildWithSpec(f *File, lookupFF func(string) (netlist.FFID, bool)) (*rsn.Network, *secspec.Spec, error) {
	nw, err := Build(f, lookupFF)
	if err != nil {
		return nil, nil, err
	}
	spec, err := SpecFromFile(f)
	if err != nil {
		return nil, nil, err
	}
	if spec != nil && spec.NumModules() != len(nw.Modules) {
		return nil, nil, fmt.Errorf("icl: specification covers %d modules, network has %d", spec.NumModules(), len(nw.Modules))
	}
	return nw, spec, nil
}
