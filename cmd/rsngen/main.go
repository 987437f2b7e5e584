// Command rsngen reconstructs the benchmark networks of the paper's
// Table I and writes them as ICL files.
//
//	rsngen -all -out networks/            # every benchmark, full size
//	rsngen -benchmark FlexScan -scale 0.1 # one scaled benchmark to stdout
//
// Pass -with-circuit to also attach the seeded random circuit and emit
// the capture/update instrument links. Per-benchmark progress records
// go to stderr (the ICL itself may stream to stdout) as structured log
// lines (-log-level/-log-format); -q silences them.
//
// Scale mode: -scale-ff N streams a generated SIB-hierarchy network of
// N scan flip-flops as ICL — to stdout, or to <out>/<name>.icl with
// -out. The network is never materialized in memory; peak heap stays
// bounded by the SIB tree depth regardless of N (1M scan FFs stream in
// ~10 MB peak RSS, see EXPERIMENTS.md). -sib-fanout, -leaf-len and
// -modules shape the hierarchy, -with-spec embeds a generated security
// specification, and -obf-keybits K overlays K key gates, writing the
// rsnsec.obfus-overlay/v1 sidecar (with the embedded defender key) to
// -overlay-out (default <out>/<name>.overlay.json; required explicitly
// when streaming to stdout). The same seed always streams the same
// bytes.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	rsnsec "repro"
	"repro/internal/cliutil"
	"repro/internal/version"
)

func main() {
	var (
		benchName   = flag.String("benchmark", "", "benchmark to generate (default: stdout)")
		all         = flag.Bool("all", false, "generate every Table I benchmark")
		scale       = flag.Float64("scale", 1, "structure scale (0..1]")
		outDir      = flag.String("out", "", "output directory (required with -all)")
		seed        = flag.Int64("seed", 1, "circuit generation seed")
		withCircuit = flag.Bool("with-circuit", false, "attach a random circuit and emit instrument links")
		scaleFF     = flag.Int("scale-ff", 0, "stream a generated SIB-hierarchy network with this many scan flip-flops")
		sibFanout   = flag.Int("sib-fanout", 0, "children per SIB tree node in -scale-ff mode (0 = 8)")
		leafLen     = flag.Int("leaf-len", 0, "scan length of each leaf register in -scale-ff mode (0 = 16)")
		modules     = flag.Int("modules", 0, "module count in -scale-ff mode (0 = 16)")
		withSpec    = flag.Bool("with-spec", false, "embed a generated security specification in -scale-ff mode")
		obfKeyBits  = flag.Int("obf-keybits", 0, "overlay this many key gates in -scale-ff mode and write the overlay sidecar")
		obfMuxShare = flag.Float64("obf-mux-share", -1, "fraction of key bits gating mux selects (-1 = default 0.5)")
		obfDynamic  = flag.Bool("obf-dynamic", false, "overlay uses the dynamic (LFSR) key schedule")
		overlayOut  = flag.String("overlay-out", "", "overlay sidecar path (default <out>/<name>.overlay.json)")
		quiet       = flag.Bool("q", false, "suppress the per-benchmark progress records")
		logLevel    = flag.String("log-level", "info", "log level spec: LEVEL[,component=LEVEL...] (debug|info|warn|error|off)")
		logFormat   = flag.String("log-format", "text", "log record encoding: text or json")
		showVer     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("rsngen"))
		return
	}
	lg, err := cliutil.Logger(os.Stderr, *logLevel, *logFormat, *quiet)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsngen:", err)
		os.Exit(1)
	}
	if *scaleFF > 0 {
		cfg := rsnsec.ScaleGenConfig{
			TargetScanFFs: *scaleFF,
			SIBFanout:     *sibFanout,
			LeafLen:       *leafLen,
			Modules:       *modules,
			WithSpec:      *withSpec,
			Seed:          *seed,
			ObfKeyBits:    *obfKeyBits,
			ObfMuxShare:   *obfMuxShare,
			ObfDynamic:    *obfDynamic,
		}
		if err := runScale(cfg, *outDir, *overlayOut, lg); err != nil {
			fmt.Fprintln(os.Stderr, "rsngen:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*benchName, *all, *scale, *outDir, *seed, *withCircuit, lg); err != nil {
		fmt.Fprintln(os.Stderr, "rsngen:", err)
		os.Exit(1)
	}
}

// runScale is the -scale-ff mode: stream the generated network (and
// the optional overlay sidecar) without materializing it.
func runScale(cfg rsnsec.ScaleGenConfig, outDir, overlayOut string, lg *slog.Logger) error {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("scale%d", cfg.TargetScanFFs)
	}
	iclPath := "-"
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		iclPath = filepath.Join(outDir, cfg.Name+".icl")
	}
	ovPath := overlayOut
	if cfg.ObfKeyBits > 0 && ovPath == "" {
		if outDir == "" {
			return fmt.Errorf("-obf-keybits with stdout output requires -overlay-out")
		}
		ovPath = filepath.Join(outDir, cfg.Name+".overlay.json")
	}
	var st *rsnsec.ScaleGenStats
	err := cliutil.WriteOutput(iclPath, func(out io.Writer) (err error) {
		if cfg.ObfKeyBits == 0 {
			st, err = rsnsec.StreamScaleICL(out, nil, cfg)
			return err
		}
		return cliutil.WriteOutput(ovPath, func(ovw io.Writer) (err error) {
			st, err = rsnsec.StreamScaleICL(out, ovw, cfg)
			return err
		})
	})
	if err != nil {
		return err
	}
	lg.Info("scale network streamed", "name", cfg.Name, "registers", st.Registers,
		"scan_ffs", st.ScanFFs, "muxes", st.Muxes, "modules", st.Modules,
		"sib_depth", st.Depth, "key_bits", st.KeyBits, "path", iclPath,
		"overlay", ovPath)
	return nil
}

func run(benchName string, all bool, scale float64, outDir string, seed int64, withCircuit bool, lg *slog.Logger) error {
	var list []rsnsec.Benchmark
	switch {
	case all:
		if outDir == "" {
			return fmt.Errorf("-all requires -out")
		}
		list = rsnsec.Catalog()
	case benchName != "":
		b, ok := rsnsec.BenchmarkByName(benchName)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", benchName)
		}
		list = []rsnsec.Benchmark{b}
	default:
		return fmt.Errorf("one of -benchmark or -all is required")
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for _, b := range list {
		nw := b.Build(scale)
		var ffName func(rsnsec.FFID) string
		var circuit *rsnsec.Netlist
		if withCircuit {
			att := rsnsec.AttachCircuit(nw, rsnsec.DefaultCircuitConfig(), seed)
			circuit = att.Circuit
			ffName = func(f rsnsec.FFID) string { return circuit.FFs[f].Name }
		}
		st := nw.Stats()
		path := "-"
		if outDir != "" {
			path = filepath.Join(outDir, b.Name+".icl")
		}
		if err := cliutil.WriteOutput(path, func(w io.Writer) error { return rsnsec.WriteICL(w, nw, ffName) }); err != nil {
			return err
		}
		if outDir == "" {
			continue
		}
		lg.Info("benchmark written", "benchmark", b.Name, "registers", st.Registers,
			"scan_ffs", st.ScanFFs, "muxes", st.Muxes, "path", path)
		if circuit != nil {
			// The attached circuit travels alongside as .bench.
			cpath := filepath.Join(outDir, b.Name+".bench")
			if err := cliutil.WriteOutput(cpath, func(w io.Writer) error { return rsnsec.WriteBench(w, circuit) }); err != nil {
				return err
			}
			lg.Info("circuit written", "benchmark", b.Name, "ffs", circuit.NumFFs(),
				"gates", circuit.NumGates(), "path", cpath)
		}
	}
	return nil
}
