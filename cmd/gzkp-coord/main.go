// Command gzkp-coord runs the cluster coordinator: an HTTP front end
// (same API shape as gzkp-serve) over N prover nodes. It places circuits
// on a consistent-hash ring with k-way key replication, probes node
// health and evicts the dead, migrates jobs off lost nodes, and on
// SIGINT/SIGTERM drains the whole cluster — fanning out per-node drains
// and merging their checkpoints into one restorable file.
//
//	gzkp-coord -addr :8089 -nodes a=http://localhost:8090,b=http://localhost:8091,c=http://localhost:8092
//
// With -self and -peers it runs as one replica of a highly available
// coordinator group: one leader holds a time-bounded lease and replicates
// its state journal to the standbys; a standby serves reads and
// 307-redirects writes, and takes over (re-probing the fleet and
// re-driving unfinished jobs) when the lease expires. A job is
// acknowledged before its record replicates, so a job accepted within one
// heartbeat of the leader's death can be lost. The group keeps no state on
// disk: a restarted replica rejoins empty and catches up from the leader.
//
//	gzkp-coord -addr :8089 -self coordA -peers coordA=http://localhost:8089,coordB=http://localhost:8088 -nodes ...
//	gzkp-coord -addr :8088 -self coordB -peers coordA=http://localhost:8089,coordB=http://localhost:8088 -nodes ...
//
// Failover is tested by the seeded control-plane simulator in
// internal/cluster (DESIGN.md §10), not by fault flags on this command.
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
	"strings"
	"syscall"
	"time"

	"gzkp/internal/cluster"
	"gzkp/internal/service"
	"gzkp/internal/telemetry"
)

func main() {
	var (
		addr          = flag.String("addr", "localhost:8089", "listen address")
		nodesSpec     = flag.String("nodes", "", `comma-separated prover nodes, each "name=url" (or bare url; the host:port becomes the name)`)
		replicas      = flag.Int("replicas", 2, "nodes holding each circuit's proving key")
		maxInflight   = flag.Int("max-inflight", 0, "admission bound on unfinished cluster jobs (default 64 per node)")
		probeEvery    = flag.Duration("probe-interval", 2*time.Second, "health probe period")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "per-probe budget")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive strikes before eviction")
		adopt         = flag.Bool("adopt", false, "adopt circuits already registered on the nodes at startup")
		checkpoint    = flag.String("checkpoint", "", "merged drain checkpoint path: written on shutdown, restored at startup if present")
		drainWait     = flag.Duration("drain-timeout", 60*time.Second, "max time for the cluster drain on shutdown")
		nodeDrain     = flag.Duration("node-drain-timeout", 30*time.Second, "per-node drain budget within the cluster drain")
		debugAddr     = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address")
		self          = flag.String("self", "", "this replica's name in -peers (enables coordinator HA)")
		peersSpec     = flag.String("peers", "", `comma-separated coordinator replicas "name=url" including self; empty = single coordinator`)
		leaseEvery    = flag.Duration("lease-interval", 500*time.Millisecond, "leader heartbeat/replication period (HA mode)")
		leaseTTL      = flag.Duration("lease-ttl", 0, "lease staleness before standbys elect (default 4x lease-interval)")
		traceOut      = flag.String("trace-jsonl", "", "record coordinator-side spans and write them as trace JSONL here on shutdown (stitch with gzkp-tracecat)")
		eventsOut     = flag.String("events", "", "append structured control-plane events as JSONL here (also served at /v1/cluster/events)")
		eventLevel    = flag.String("event-level", "info", "minimum event level: debug | info | warn | error")
	)
	flag.Parse()
	if *nodesSpec == "" {
		die(errors.New("-nodes is required"))
	}
	var nodes []cluster.NodeSpec
	for _, part := range strings.Split(*nodesSpec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, url, ok := strings.Cut(part, "="); ok {
			nodes = append(nodes, cluster.NodeSpec{Name: name, URL: url})
		} else {
			nodes = append(nodes, cluster.NodeSpec{URL: part})
		}
	}

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.New()
	}
	lvl, err := telemetry.ParseEventLevel(*eventLevel)
	die(err)
	events := telemetry.NewEventLog(telemetry.DefaultEventCapacity, lvl)
	var eventsFile *os.File
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		die(err)
		eventsFile = f
		events.SetSink(f)
	}
	// flush writes the trace JSONL and closes the event sink on shutdown.
	flush := func() {
		if tracer != nil {
			f, err := os.Create(*traceOut)
			die(err)
			die(tracer.WriteJSONL(f))
			die(f.Close())
			fmt.Printf("gzkp-coord: wrote trace JSONL to %s\n", *traceOut)
		}
		if eventsFile != nil {
			_ = eventsFile.Close()
		}
	}

	reg := telemetry.NewRegistry()
	ccfg := cluster.Config{
		Nodes:            nodes,
		Replicas:         *replicas,
		MaxInflight:      *maxInflight,
		ProbeInterval:    *probeEvery,
		ProbeTimeout:     *probeTimeout,
		FailThreshold:    *failThreshold,
		NodeDrainTimeout: *nodeDrain,
		Registry:         reg,
		Tracer:           tracer,
		Events:           events,
	}

	if *peersSpec != "" {
		runReplica(ccfg, *addr, *self, *peersSpec, *leaseEvery, *leaseTTL,
			*adopt, *checkpoint, *drainWait, *debugAddr, flush)
		return
	}

	coord, err := cluster.New(ccfg)
	die(err)

	if *debugAddr != "" {
		dbg, at, err := telemetry.ServeDebug(*debugAddr, reg)
		die(err)
		defer dbg.Close()
		fmt.Printf("gzkp-coord: debug server on http://%s/debug/vars\n", at)
	}
	if *adopt {
		n := coord.AdoptCircuits()
		fmt.Printf("gzkp-coord: adopted %d circuits from running nodes\n", n)
	}
	if *checkpoint != "" {
		restoreFromFile(coord, *checkpoint)
	}

	srv := &http.Server{Addr: *addr, Handler: cluster.NewHandler(coord)}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("gzkp-coord: listening on http://%s (nodes=%d replicas=%d)\n",
			*addr, len(nodes), *replicas)
		errCh <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		die(err)
	case s := <-sig:
		fmt.Printf("gzkp-coord: %s — draining cluster (timeout %s)\n", s, *drainWait)
	}

	drainAndCheckpoint(coord, *drainWait, *checkpoint)
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	_ = srv.Shutdown(shCtx)
	coord.Close()
	flush()
}

// runReplica is the HA-mode main loop: one replica of a coordinator
// group. Role transitions print to stdout; SIGTERM drains the cluster
// only if this replica currently leads (a standby just exits — the
// leader owns the jobs).
func runReplica(ccfg cluster.Config, addr, self, peersSpec string,
	leaseEvery, leaseTTL time.Duration,
	adopt bool, checkpoint string, drainWait time.Duration, debugAddr string,
	flush func()) {
	if self == "" {
		die(errors.New("-peers requires -self"))
	}
	var peers []cluster.PeerSpec
	for _, part := range strings.Split(peersSpec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok {
			die(fmt.Errorf("-peers entry %q: want name=url", part))
		}
		peers = append(peers, cluster.PeerSpec{Name: name, URL: url})
	}

	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		Self: self, Peers: peers,
		LeaseInterval: leaseEvery, LeaseTTL: leaseTTL,
		Cluster: ccfg,
		Logf: func(format string, args ...any) {
			fmt.Printf("gzkp-coord: "+format+"\n", args...)
		},
	})
	die(err)

	if debugAddr != "" {
		dbg, at, err := telemetry.ServeDebug(debugAddr, rep.Registry())
		die(err)
		defer dbg.Close()
		fmt.Printf("gzkp-coord: debug server on http://%s/debug/vars\n", at)
	}

	rep.Start()
	if coord := rep.Coordinator(); coord != nil {
		if adopt {
			n := coord.AdoptCircuits()
			fmt.Printf("gzkp-coord: adopted %d circuits from running nodes\n", n)
		}
		if checkpoint != "" {
			restoreFromFile(coord, checkpoint)
		}
	} else if adopt || checkpoint != "" {
		fmt.Println("gzkp-coord: standby at startup; -adopt/-checkpoint apply on the leader")
	}

	srv := &http.Server{Addr: addr, Handler: rep}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("gzkp-coord: replica %s listening on http://%s (peers=%d nodes=%d role=%s)\n",
			self, addr, len(peers), len(ccfg.Nodes), rep.Role())
		errCh <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		die(err)
	case s := <-sig:
		fmt.Printf("gzkp-coord: %s — shutting down replica %s (role=%s)\n", s, self, rep.Role())
	}

	if coord := rep.Coordinator(); coord != nil {
		fmt.Printf("gzkp-coord: leader drain (timeout %s)\n", drainWait)
		drainAndCheckpoint(coord, drainWait, checkpoint)
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	_ = srv.Shutdown(shCtx)
	rep.Close()
	flush()
}

func restoreFromFile(coord *cluster.Coordinator, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var cp service.Checkpoint
	die(json.Unmarshal(data, &cp))
	n, err := coord.Restore(&cp)
	die(err)
	die(os.Remove(path))
	fmt.Printf("gzkp-coord: restored %d checkpointed jobs from %s\n", n, path)
}

func drainAndCheckpoint(coord *cluster.Coordinator, drainWait time.Duration, checkpoint string) {
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	rep, derr := coord.Drain(ctx)
	if derr != nil && !errors.Is(derr, context.DeadlineExceeded) && !errors.Is(derr, context.Canceled) {
		fmt.Fprintln(os.Stderr, "gzkp-coord: drain:", derr)
	}
	fmt.Printf("gzkp-coord: drained (%d jobs finished)\n", rep.Finished)
	if rep.Checkpoint != nil {
		if checkpoint == "" {
			fmt.Fprintf(os.Stderr, "gzkp-coord: %d stranded jobs dropped (no -checkpoint path)\n",
				len(rep.Checkpoint.Jobs))
		} else {
			blob, err := json.MarshalIndent(rep.Checkpoint, "", "  ")
			die(err)
			die(os.WriteFile(checkpoint, blob, 0o644))
			fmt.Printf("gzkp-coord: checkpointed %d stranded jobs to %s\n",
				len(rep.Checkpoint.Jobs), checkpoint)
		}
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gzkp-coord:", err)
		os.Exit(1)
	}
}
