package rsn_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/icl"
	"repro/internal/rsn"
)

// FuzzParseObfuscation drives the overlay sidecar boundary: the JSON
// document that travels next to a network (rsngen -obf-* writes it,
// attack jobs read it). ParseObfuscation never panics, against the
// diamond network or a generated SIB hierarchy with key gates, and an
// accepted overlay marshals and parses back to the same key width,
// schedule, taps, gates and key.
func FuzzParseObfuscation(f *testing.F) {
	diamond := rsn.BuildDiamond()
	nets := []*rsn.Network{diamond}
	// Seeds from the overlay tests, on the diamond.
	for _, key := range [][]bool{{true, false, true}, nil} {
		ov := &rsn.Obfuscation{NumKeyBits: 3, Dynamic: true, Taps: []int{0, 2}, Gates: []rsn.KeyGate{
			{Kind: rsn.KeyXOR, Elem: 2, Bit: 0}, {Kind: rsn.KeyMux, Elem: 0, Bit: 2}}}
		data, err := rsn.MarshalObfuscation(ov, diamond, key)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Seeds from the generator behind rsngen -scale-ff -obf-*: static
	// and dynamic schedules, mux and XOR gates.
	for _, cfg := range []bench.ScaleGenConfig{
		{Name: "scale48", TargetScanFFs: 48, LeafLen: 8, Seed: 1, ObfKeyBits: 4, ObfMuxShare: -1, ObfDynamic: true},
		{Name: "scale64", TargetScanFFs: 64, LeafLen: 8, Seed: 2, ObfKeyBits: 6, ObfMuxShare: 0},
		{Name: "scale40", TargetScanFFs: 40, LeafLen: 4, Seed: 3, ObfKeyBits: 5, ObfMuxShare: 1},
	} {
		var nb, ob bytes.Buffer
		if _, err := bench.StreamScaleICL(&nb, &ob, cfg); err != nil {
			f.Fatal(err)
		}
		nw, _, err := icl.ParseNetworkAndSpec(nb.String(), nil)
		if err != nil {
			f.Fatal(err)
		}
		if _, _, err := rsn.ParseObfuscation(ob.Bytes(), nw); err != nil {
			f.Fatalf("%s: generated overlay refused: %v", cfg.Name, err)
		}
		nets = append(nets, nw)
		f.Add(ob.Bytes())
	}
	for _, seed := range []string{
		`{}`,
		`{"schema":"rsnsec.obfus-overlay/v1","key_bits":1,"gates":[{"kind":"xor","elem":"A","bit":0}],"key":"01"}`,
		`{"schema":"rsnsec.obfus-overlay/v1","key_bits":2,"gates":[{"kind":"mux","elem":"M0","bit":1}],"taps":[1]}`,
		`{"schema":"rsnsec.obfus-overlay/v1","key_bits":9223372036854775807,"gates":[{"kind":"xor","elem":"B","bit":0}],"key":"ff"}`,
		`{"schema":"rsnsec.obfus-overlay/v1","key_bits":1,"gates":[{"kind":"xor","elem":"C","bit":0}],"extra":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, nw := range nets {
			ov, key, err := rsn.ParseObfuscation(data, nw)
			if err != nil {
				continue
			}
			enc, err := rsn.MarshalObfuscation(ov, nw, key)
			if err != nil {
				t.Fatalf("%s: accepted overlay does not marshal: %v", nw.Name, err)
			}
			back, backKey, err := rsn.ParseObfuscation(enc, nw)
			if err != nil {
				t.Fatalf("%s: marshalled overlay does not parse: %v\n%s", nw.Name, err, enc)
			}
			if back.NumKeyBits != ov.NumKeyBits || back.Dynamic != ov.Dynamic || !slices.Equal(back.Taps, ov.Taps) ||
				!slices.Equal(back.Gates, ov.Gates) || !slices.Equal(backKey, key) || (backKey == nil) != (key == nil) {
				t.Fatalf("%s: round trip changed the overlay: %+v key %v, then %+v key %v", nw.Name, ov, key, back, backKey)
			}
		}
	})
}
