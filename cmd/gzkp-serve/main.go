// Command gzkp-serve runs the proving service: an HTTP front end over the
// bounded job queue, its two dispatch slots and the prover of
// internal/service. On SIGINT/SIGTERM it drains gracefully — stops
// accepting, finishes in-flight jobs, and checkpoints anything still
// queued to -checkpoint so a successor process (started with the same
// flag) resumes the work.
//
//	gzkp-serve -addr :8090 -queue 64 -prover gzkp
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gzkp/internal/groth16"
	"gzkp/internal/service"
	"gzkp/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8090", "listen address")
		queueCap   = flag.Int("queue", 64, "admission-control bound on queued+running jobs")
		maxBatch   = flag.Int("max-batch", 4, "max same-circuit jobs per dispatch")
		prover     = flag.String("prover", "gzkp", "gzkp | baseline | cpu")
		preprocess = flag.Bool("preprocess", false, "build GZKP MSM tables at circuit registration: table memory for ~1.3x faster MSMs (off: MSMs build no table)")
		checkpoint = flag.String("checkpoint", "", "drain checkpoint path: written on shutdown deadline, restored at startup if present")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight jobs on shutdown")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address")
		traceOut   = flag.String("trace-jsonl", "", "record spans and write them as trace JSONL here on shutdown (stitch with gzkp-tracecat)")
		eventsOut  = flag.String("events", "", "append structured control-plane events as JSONL here (also served at /v1/events)")
		eventLevel = flag.String("event-level", "info", "minimum event level: debug | info | warn | error")
	)
	flag.Parse()

	cfg := service.Config{
		QueueCapacity: *queueCap,
		MaxBatch:      *maxBatch,
		MaxCircuits:   32,
		Preprocess:    *preprocess,
		Registry:      telemetry.NewRegistry(),
	}
	pc, ok := groth16.Provers[*prover]
	if !ok {
		fmt.Fprintf(os.Stderr, "gzkp-serve: unknown prover %q\n", *prover)
		os.Exit(2)
	}
	cfg.NTT, cfg.MSM = pc.NTT, pc.MSM

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.New()
		cfg.Tracer = tracer // service adopts the tracer's registry
	}
	lvl, err := telemetry.ParseEventLevel(*eventLevel)
	die(err)
	events := telemetry.NewEventLog(telemetry.DefaultEventCapacity, lvl)
	cfg.Events = events
	var eventsFile *os.File
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		die(err)
		eventsFile = f
		events.SetSink(f)
	}

	svc := service.New(cfg)
	if *debugAddr != "" {
		dbg, at, err := telemetry.ServeDebug(*debugAddr, svc.Registry())
		die(err)
		defer dbg.Close()
		fmt.Printf("gzkp-serve: debug server on http://%s/debug/vars\n", at)
	}
	if *checkpoint != "" {
		if data, err := os.ReadFile(*checkpoint); err == nil {
			var cp service.Checkpoint
			die(json.Unmarshal(data, &cp))
			n, err := svc.Restore(&cp)
			die(err)
			die(os.Remove(*checkpoint))
			fmt.Printf("gzkp-serve: restored %d checkpointed jobs from %s\n", n, *checkpoint)
		}
	}

	srv := &http.Server{Addr: *addr, Handler: service.NewHandler(svc)}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("gzkp-serve: listening on http://%s (queue=%d prover=%s)\n",
			*addr, *queueCap, *prover)
		errCh <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		die(err)
	case s := <-sig:
		fmt.Printf("gzkp-serve: %s — draining (timeout %s)\n", s, *drainWait)
	}

	// Graceful drain: refuse new jobs, finish what was admitted, checkpoint
	// whatever the deadline strands, then stop the HTTP listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	rep, derr := svc.Drain(ctx)
	if derr != nil && !errors.Is(derr, context.DeadlineExceeded) && !errors.Is(derr, context.Canceled) {
		fmt.Fprintln(os.Stderr, "gzkp-serve: drain:", derr)
	}
	fmt.Printf("gzkp-serve: drained (%d jobs finished)\n", rep.Finished)
	if rep.Checkpointed != nil {
		if *checkpoint == "" {
			fmt.Fprintf(os.Stderr, "gzkp-serve: %d queued jobs dropped (no -checkpoint path)\n",
				len(rep.Checkpointed.Jobs))
		} else {
			blob, err := json.MarshalIndent(rep.Checkpointed, "", "  ")
			die(err)
			die(os.WriteFile(*checkpoint, blob, 0o644))
			fmt.Printf("gzkp-serve: checkpointed %d queued jobs to %s\n",
				len(rep.Checkpointed.Jobs), *checkpoint)
		}
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	_ = srv.Shutdown(shCtx)
	svc.Close()
	if tracer != nil {
		f, err := os.Create(*traceOut)
		die(err)
		die(tracer.WriteJSONL(f))
		die(f.Close())
		fmt.Printf("gzkp-serve: wrote trace JSONL to %s\n", *traceOut)
	}
	if eventsFile != nil {
		_ = eventsFile.Close()
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gzkp-serve:", err)
		os.Exit(1)
	}
}
