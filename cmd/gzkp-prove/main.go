// Command gzkp-prove demonstrates the full proving flow from the command
// line: it compiles a synthetic circuit of the requested size, runs the
// trusted setup, solves a witness, generates a proof with a selectable
// prover plan, verifies it, and prints the stage breakdown the paper's
// Tables 2-3 report.
//
//	gzkp-prove -curve bn254 -constraints 2048 -prover gzkp
//
// With -out-proof/-out-vk it writes the proof and verifying key to disk in
// the compressed wire format; -verify flips the command into a standalone
// verifier that reads those artifacts back (either wire format) and checks
// the proof against the supplied public inputs:
//
//	gzkp-prove -circuit cubic.zk -public 35 -secret 3 -out-proof p.bin -out-vk vk.bin
//	gzkp-prove -verify -proof p.bin -vk vk.bin -public 35
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/frontend"
	"gzkp/internal/groth16"
	"gzkp/internal/r1cs"
	"gzkp/internal/telemetry"
	"gzkp/internal/workload"
)

func main() {
	var (
		curveName   = flag.String("curve", "bn254", "bn254 | bls12381")
		constraints = flag.Int("constraints", 1024, "approximate synthetic circuit size")
		prover      = flag.String("prover", "gzkp", "gzkp | baseline | cpu")
		seed        = flag.Int64("seed", 1, "circuit/witness seed")
		circuitPath = flag.String("circuit", "", "circuit source file (frontend language); overrides -constraints")
		publicVals  = flag.String("public", "", "comma-separated public inputs for -circuit")
		secretVals  = flag.String("secret", "", "comma-separated secret inputs for -circuit")
		timeout     = flag.Duration("timeout", 0, "abort preprocessing+proving after this duration (0 = no limit)")
		tracePath   = flag.String("trace", "", "write a Chrome trace_event JSON timeline here (load in Perfetto or chrome://tracing)")
		jsonlPath   = flag.String("jsonl", "", "write the span/event/metric log as JSON lines here")
		showStats   = flag.Bool("stats", false, "print the telemetry summary and aggregated MSM totals after proving")
		debugAddr   = flag.String("debug-addr", "", `serve /debug/vars (expvar) and /debug/pprof on this address during the run (e.g. "localhost:6060")`)
		outProof    = flag.String("out-proof", "", "write the proof here (compressed wire format)")
		outVK       = flag.String("out-vk", "", "write the verifying key here (compressed wire format)")
		doVerify    = flag.Bool("verify", false, "verify a serialized proof instead of proving (requires -proof, -vk, -public)")
		proofPath   = flag.String("proof", "", "proof file for -verify (compressed or uncompressed)")
		vkPath      = flag.String("vk", "", "verifying key file for -verify (compressed or uncompressed)")
	)
	flag.Parse()

	if *doVerify {
		os.Exit(verifyMain(*proofPath, *vkPath, *publicVals))
	}

	var id curve.ID
	switch *curveName {
	case "bn254":
		id = curve.BN254
	case "bls12381":
		id = curve.BLS12381
	default:
		fmt.Fprintf(os.Stderr, "gzkp-prove: unsupported curve %q (the 753-bit MNT4753-sim has no pairing; use gzkp-bench for it)\n", *curveName)
		os.Exit(2)
	}
	cfg, ok := groth16.Provers[*prover]
	if !ok {
		fmt.Fprintf(os.Stderr, "gzkp-prove: unknown prover %q\n", *prover)
		os.Exit(2)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// One tracer serves every telemetry sink; proving code records into it
	// through the context.
	var tracer *telemetry.Tracer
	if *tracePath != "" || *jsonlPath != "" || *showStats || *debugAddr != "" {
		tracer = telemetry.New()
		ctx = telemetry.NewContext(ctx, tracer)
	}
	if *debugAddr != "" {
		srv, addr, err := telemetry.ServeDebug(*debugAddr, tracer.Registry())
		die(err)
		defer srv.Close()
		fmt.Printf("debug server: http://%s/debug/vars (expvar), /debug/pprof\n", addr)
	}

	c := curve.Get(id)
	var (
		sys      *r1cs.System
		pub, sec []ff.Element
	)
	if *circuitPath != "" {
		src, err := os.ReadFile(*circuitPath)
		die(err)
		prog, err := frontend.Compile(c.Fr, string(src), 0)
		die(err)
		sys = prog.System
		pub = parseValues(c.Fr, *publicVals, prog.PublicNames, "public")
		sec = parseValues(c.Fr, *secretVals, prog.SecretNames, "secret")
		fmt.Printf("curve %s, circuit %s (%v public, %v secret), prover plan %q\n",
			c.Name, *circuitPath, prog.PublicNames, prog.SecretNames, *prover)
	} else {
		fmt.Printf("curve %s, synthetic circuit targeting %d constraints, prover plan %q\n",
			c.Name, *constraints, *prover)
		var err error
		sys, pub, sec, err = workload.SyntheticR1CS(c.Fr, *constraints, *seed)
		die(err)
	}
	fmt.Printf("circuit: %d constraints, %d wires (%d public)\n",
		len(sys.Constraints), sys.NumVars, sys.NumPublic)

	// Inputs that violate a constraint stop here, naming it, not after a
	// setup and prove as a failed pairing check.
	w, err := sys.Solve(pub, sec)
	die(err)
	die(sys.IsSatisfied(w))

	t0 := time.Now()
	pk, vk, err := groth16.Setup(sys, c, nil)
	die(err)
	fmt.Printf("setup: %.2fs (domain 2^%d)\n", time.Since(t0).Seconds(), log2(pk.DomainN))

	if *prover == "gzkp" {
		t0 = time.Now()
		die(pk.PreprocessCtx(ctx, cfg.MSM))
		fmt.Printf("GZKP MSM preprocessing (Algorithm 1, one-time): %.2fs\n", time.Since(t0).Seconds())
	}

	proof, stats, err := groth16.ProveCtx(ctx, pk, sys, w, cfg, nil)
	die(err)
	fmt.Printf("prove: POLY %.2fms (%d NTTs) + MSM %.2fms (%d MSMs) = %.2fms\n",
		float64(stats.PolyNS)/1e6, stats.NTTOps,
		float64(stats.MSMNS)/1e6, stats.MSMOps,
		float64(stats.PolyNS+stats.MSMNS)/1e6)
	if *showStats {
		tot := stats.Totals()
		fmt.Printf("msm totals: %d point adds, %d doubles, %d table bytes, %d traffic bytes\n",
			tot.PointAdds, tot.Doubles, tot.TableBytes, tot.TrafficBytes)
	}

	blob, err := proof.MarshalBinary()
	die(err)
	t0 = time.Now()
	die(groth16.Verify(vk, proof, pub))
	fmt.Printf("verify: ok in %.1fms (proof %d bytes)\n", time.Since(t0).Seconds()*1e3, len(blob))

	if *outProof != "" {
		cb, err := proof.MarshalCompressed()
		die(err)
		die(os.WriteFile(*outProof, cb, 0o644))
		fmt.Printf("proof: wrote %s (%d bytes compressed)\n", *outProof, len(cb))
	}
	if *outVK != "" {
		kb, err := vk.MarshalCompressed()
		die(err)
		die(os.WriteFile(*outVK, kb, 0o644))
		fmt.Printf("vk: wrote %s (%d bytes compressed)\n", *outVK, len(kb))
	}

	if *tracePath != "" {
		die(writeFileWith(*tracePath, tracer.WriteChromeTrace))
		fmt.Printf("trace: wrote %s (open in https://ui.perfetto.dev)\n", *tracePath)
	}
	if *jsonlPath != "" {
		die(writeFileWith(*jsonlPath, tracer.WriteJSONL))
		fmt.Printf("jsonl: wrote %s\n", *jsonlPath)
	}
	if *showStats {
		fmt.Println("telemetry summary:")
		die(tracer.WriteSummary(os.Stdout))
	}
}

// verifyMain is the -verify mode: load a serialized proof + verifying key
// (auto-detecting compressed vs uncompressed wire format), parse the public
// inputs, and report the pairing check's verdict. Exit 0 on a valid proof,
// 1 on an invalid or unreadable one — suitable for scripting.
func verifyMain(proofPath, vkPath, publicCSV string) int {
	if proofPath == "" || vkPath == "" {
		fmt.Fprintln(os.Stderr, "gzkp-prove: -verify requires -proof and -vk")
		return 2
	}
	pb, err := os.ReadFile(proofPath)
	die(err)
	kb, err := os.ReadFile(vkPath)
	die(err)
	proof, err := groth16.UnmarshalProofAuto(pb)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gzkp-prove: bad proof %s: %v\n", proofPath, err)
		return 1
	}
	vk, err := groth16.UnmarshalVerifyingKeyAuto(kb)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gzkp-prove: bad verifying key %s: %v\n", vkPath, err)
		return 1
	}
	if proof.CurveID != vk.CurveID {
		fmt.Fprintf(os.Stderr, "gzkp-prove: proof curve %s != key curve %s\n",
			curve.Get(proof.CurveID).Name, curve.Get(vk.CurveID).Name)
		return 1
	}
	f := curve.Get(vk.CurveID).Fr
	var pub []ff.Element
	if strings.TrimSpace(publicCSV) != "" {
		for _, p := range strings.Split(publicCSV, ",") {
			pub = append(pub, f.MustFromString(strings.TrimSpace(p)))
		}
	}
	if len(pub) != len(vk.IC)-1 {
		fmt.Fprintf(os.Stderr, "gzkp-prove: key expects %d public inputs, got %d\n",
			len(vk.IC)-1, len(pub))
		return 2
	}
	t0 := time.Now()
	if err := groth16.Verify(vk, proof, pub); err != nil {
		fmt.Fprintf(os.Stderr, "gzkp-prove: INVALID: %v\n", err)
		return 1
	}
	fmt.Printf("gzkp-prove: proof valid (%s, %d public inputs, %.1fms)\n",
		curve.Get(vk.CurveID).Name, len(pub), time.Since(t0).Seconds()*1e3)
	return 0
}

// writeFileWith streams one exporter into path.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gzkp-prove:", err)
		os.Exit(1)
	}
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// parseValues splits a comma-separated decimal list and checks arity
// against the circuit's declared inputs.
func parseValues(f *ff.Field, csv string, names []string, kind string) []ff.Element {
	var parts []string
	if strings.TrimSpace(csv) != "" {
		parts = strings.Split(csv, ",")
	}
	if len(parts) != len(names) {
		fmt.Fprintf(os.Stderr, "gzkp-prove: circuit declares %d %s inputs %v, got %d values\n",
			len(names), kind, names, len(parts))
		os.Exit(2)
	}
	out := make([]ff.Element, len(parts))
	for i, p := range parts {
		v := f.MustFromString(strings.TrimSpace(p))
		out[i] = v
	}
	return out
}
