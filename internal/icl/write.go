package icl

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// Write renders a network in the ICL dialect understood by Parse.
// ffName maps circuit flip-flop ids to the names emitted for
// CaptureSource/UpdateSink items; it may be nil when the network has no
// capture/update links.
func Write(w io.Writer, nw *rsn.Network, ffName func(netlist.FFID) string) error {
	return WriteWithSpec(w, nw, nil, ffName)
}

// WriteWithSpec renders a network together with its security
// specification: module declarations carry Trust/Accepts attributes and
// the file declares the category universe. Names are written verbatim
// between quotes, since the dialect has no escapes; a name containing a
// quote or a newline cannot be written and is an error.
func WriteWithSpec(w io.Writer, nw *rsn.Network, spec *secspec.Spec, ffName func(netlist.FFID) string) error {
	if spec != nil && spec.NumModules() != len(nw.Modules) {
		return fmt.Errorf("icl: specification covers %d modules, network has %d", spec.NumModules(), len(nw.Modules))
	}
	var sb strings.Builder
	// q returns a name to write verbatim between quotes, noting the
	// first that cannot be.
	bad := ""
	q := func(name string) string {
		if bad == "" && strings.ContainsAny(name, "\"\n") {
			bad = name
		}
		return name
	}
	ref := func(r rsn.Ref) string {
		switch r.Kind {
		case rsn.KScanIn:
			return "SI"
		case rsn.KRegister:
			return `Register "` + q(nw.Registers[r.ID].Name) + `"`
		case rsn.KMux:
			return `Mux "` + q(nw.Muxes[r.ID].Name) + `"`
		}
		return "SI"
	}
	fmt.Fprintf(&sb, "ScanNetwork \"%s\" {\n", q(nw.Name))
	if spec != nil {
		fmt.Fprintf(&sb, "  Categories %d;\n", spec.NumCategories)
	}
	for mi, m := range nw.Modules {
		if spec == nil {
			fmt.Fprintf(&sb, "  Module \"%s\";\n", q(m))
			continue
		}
		fmt.Fprintf(&sb, "  Module \"%s\" { Trust %d; Accepts ", q(m), spec.Trust[mi])
		first := true
		for c := secspec.Category(0); int(c) < spec.NumCategories; c++ {
			if spec.Accepts[mi].Has(c) {
				if !first {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "%d", c)
				first = false
			}
		}
		sb.WriteString("; }\n")
	}
	for i := range nw.Registers {
		r := &nw.Registers[i]
		fmt.Fprintf(&sb, "  ScanRegister \"%s\" {\n", q(r.Name))
		fmt.Fprintf(&sb, "    Length %d;\n", r.Len)
		fmt.Fprintf(&sb, "    ScanInSource %s;\n", ref(r.In))
		if len(nw.Modules) > 0 {
			fmt.Fprintf(&sb, "    Module \"%s\";\n", q(nw.Modules[r.Module]))
		}
		for bit, ff := range r.Capture {
			if ff == netlist.NoFF {
				continue
			}
			if ffName == nil {
				return fmt.Errorf("icl: register %q has capture links but no ffName function was given", r.Name)
			}
			fmt.Fprintf(&sb, "    CaptureSource %d \"%s\";\n", bit, q(ffName(ff)))
		}
		for bit, ff := range r.Update {
			if ff == netlist.NoFF {
				continue
			}
			if ffName == nil {
				return fmt.Errorf("icl: register %q has update links but no ffName function was given", r.Name)
			}
			fmt.Fprintf(&sb, "    UpdateSink %d \"%s\";\n", bit, q(ffName(ff)))
		}
		fmt.Fprintf(&sb, "  }\n")
	}
	for i := range nw.Muxes {
		m := &nw.Muxes[i]
		fmt.Fprintf(&sb, "  ScanMux \"%s\" {\n", q(m.Name))
		for _, in := range m.Inputs {
			fmt.Fprintf(&sb, "    Input %s;\n", ref(in))
		}
		fmt.Fprintf(&sb, "  }\n")
	}
	fmt.Fprintf(&sb, "  ScanOutSource %s;\n", ref(nw.OutSrc))
	fmt.Fprintf(&sb, "}\n")
	if bad != "" {
		return fmt.Errorf("icl: name %q contains a quote or a newline, which the dialect cannot write", bad)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders the network to a string, panicking on the errors Write
// can produce (missing ffName). Intended for networks without
// capture/update links or with a total ffName function.
func String(nw *rsn.Network, ffName func(netlist.FFID) string) string {
	var sb strings.Builder
	if err := Write(&sb, nw, ffName); err != nil {
		panic(err)
	}
	return sb.String()
}
