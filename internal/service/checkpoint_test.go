package service

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestRestoreIdempotent replays the same checkpoint twice: the second
// Restore must be a no-op — accepted-job accounting is exactly the
// checkpoint's job count, never double.
func TestRestoreIdempotent(t *testing.T) {
	cfg := fastConfig()
	cfg.QueueCapacity = 32
	svc := New(cfg)
	defer svc.Close()

	spec := CircuitSpec{Curve: "bn254", Source: cubicSrc}
	cp := &Checkpoint{Circuits: []CircuitSpec{spec}}
	id := CircuitIDFor(spec)
	for i := 0; i < 3; i++ {
		cp.Jobs = append(cp.Jobs, CheckpointEntry{
			JobID: fmt.Sprintf("node-a/job-%08d", i+1), CircuitID: id,
			Public: []string{"35"}, Secret: []string{"3"},
		})
	}

	n1, err := svc.Restore(cp)
	if err != nil {
		t.Fatalf("first restore: %v", err)
	}
	if n1 != 3 {
		t.Fatalf("first restore submitted %d jobs, want 3", n1)
	}
	n2, err := svc.Restore(cp)
	if err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if n2 != 0 {
		t.Fatalf("second restore submitted %d jobs, want 0 (idempotent)", n2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := svc.Registry().Counter("service.jobs.accepted").Value(); got != 3 {
		t.Fatalf("accepted %d jobs across two restores, want 3", got)
	}
	if got := svc.Registry().Counter("service.jobs.done").Value(); got != 3 {
		t.Fatalf("finished %d jobs, want 3", got)
	}
}

// TestMergeCheckpoints covers the cluster-drain merge: circuits dedupe by
// content id, same-node duplicate job ids collapse, and cross-node id
// collisions stay distinct through node namespacing. A merged checkpoint
// containing what was a duplicate must restore each unique job exactly
// once.
func TestMergeCheckpoints(t *testing.T) {
	spec := CircuitSpec{Curve: "bn254", Source: cubicSrc}
	id := CircuitIDFor(spec)
	entry := func(jid string) CheckpointEntry {
		return CheckpointEntry{JobID: jid, CircuitID: id, Public: []string{"35"}, Secret: []string{"3"}}
	}
	// Two nodes drained with colliding local job ids; node-b's checkpoint
	// additionally carries an internal duplicate (a replayed file).
	parts := map[string]*Checkpoint{
		"node-a": {Circuits: []CircuitSpec{spec}, Jobs: []CheckpointEntry{entry("job-00000001"), entry("job-00000002")}},
		"node-b": {Circuits: []CircuitSpec{spec}, Jobs: []CheckpointEntry{entry("job-00000001"), entry("job-00000001")}},
		"node-c": nil,
	}
	merged := MergeCheckpoints(parts)
	if len(merged.Circuits) != 1 {
		t.Fatalf("merged %d circuits, want 1 (deduped by content id)", len(merged.Circuits))
	}
	if len(merged.Jobs) != 3 {
		t.Fatalf("merged %d jobs, want 3 (2 from node-a + 1 deduped from node-b)", len(merged.Jobs))
	}
	want := []string{"node-a/job-00000001", "node-a/job-00000002", "node-b/job-00000001"}
	for i, j := range merged.Jobs {
		if j.JobID != want[i] {
			t.Fatalf("job %d id %q, want %q", i, j.JobID, want[i])
		}
	}

	// Merging must be deterministic regardless of map iteration order.
	again := MergeCheckpoints(parts)
	for i := range merged.Jobs {
		if merged.Jobs[i].JobID != again.Jobs[i].JobID {
			t.Fatal("merge order is not deterministic")
		}
	}

	// Restoring the merged checkpoint runs each unique job once.
	cfg := fastConfig()
	svc := New(cfg)
	defer svc.Close()
	n, err := svc.Restore(merged)
	if err != nil {
		t.Fatalf("restore merged: %v", err)
	}
	if n != 3 {
		t.Fatalf("restored %d jobs, want 3", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := svc.Registry().Counter("service.jobs.done").Value(); got != 3 {
		t.Fatalf("finished %d of 3 restored jobs", got)
	}
}

// TestMergeCheckpointsEdgeCases pins down the merge's less-traveled
// paths: empty and nil parts, namespaced-id aliasing across part names,
// and schema-version gating on both merge input and output.
func TestMergeCheckpointsEdgeCases(t *testing.T) {
	spec := CircuitSpec{Curve: "bn254", Source: cubicSrc}
	id := CircuitIDFor(spec)
	entry := func(jid string) CheckpointEntry {
		return CheckpointEntry{JobID: jid, CircuitID: id, Public: []string{"35"}, Secret: []string{"3"}}
	}

	t.Run("empty and nil parts", func(t *testing.T) {
		merged := MergeCheckpoints(map[string]*Checkpoint{
			"node-a": {}, // drained clean: no circuits, no stranded jobs
			"node-b": nil,
		})
		if len(merged.Circuits) != 0 || len(merged.Jobs) != 0 {
			t.Fatalf("merged %d circuits / %d jobs from empty parts", len(merged.Circuits), len(merged.Jobs))
		}
		if merged.Version != CheckpointVersion {
			t.Fatalf("merged version = %d, want %d", merged.Version, CheckpointVersion)
		}
		if MergeCheckpoints(nil).Version != CheckpointVersion {
			t.Fatal("nil parts must still produce a versioned checkpoint")
		}
	})

	t.Run("namespaced id aliasing", func(t *testing.T) {
		// Part "node-a" holding job "b/job-1" and part "node-a/b" holding
		// job "job-1" both namespace to "node-a/b/job-1". The merge keeps
		// the first (part names sort first) — aliased ids must collapse
		// deterministically rather than double-restore one identity.
		merged := MergeCheckpoints(map[string]*Checkpoint{
			"node-a":   {Jobs: []CheckpointEntry{entry("b/job-1")}},
			"node-a/b": {Jobs: []CheckpointEntry{entry("job-1")}},
		})
		if len(merged.Jobs) != 1 || merged.Jobs[0].JobID != "node-a/b/job-1" {
			t.Fatalf("aliased merge = %+v, want exactly node-a/b/job-1", merged.Jobs)
		}
	})

	t.Run("wrong schema version part skipped", func(t *testing.T) {
		merged := MergeCheckpoints(map[string]*Checkpoint{
			"node-a": {Version: CheckpointVersion, Jobs: []CheckpointEntry{entry("job-1")}},
			"node-b": {Version: 99, Jobs: []CheckpointEntry{entry("job-1")}},
			"node-c": {Jobs: []CheckpointEntry{entry("job-1")}}, // 0 = legacy, readable
		})
		want := []string{"node-a/job-1", "node-c/job-1"}
		if len(merged.Jobs) != len(want) {
			t.Fatalf("merged %d jobs, want %d (version-99 part skipped)", len(merged.Jobs), len(want))
		}
		for i, j := range merged.Jobs {
			if j.JobID != want[i] {
				t.Fatalf("job %d id %q, want %q", i, j.JobID, want[i])
			}
		}
	})

	t.Run("restore rejects wrong version", func(t *testing.T) {
		cfg := fastConfig()
		svc := New(cfg)
		defer svc.Close()
		bad := &Checkpoint{Version: 99, Circuits: []CircuitSpec{spec}, Jobs: []CheckpointEntry{entry("job-1")}}
		if _, err := svc.Restore(bad); err == nil {
			t.Fatal("restore accepted a checkpoint from an unknown schema version")
		}
		if got := svc.Registry().Counter("service.jobs.accepted").Value(); got != 0 {
			t.Fatalf("rejected restore still accepted %d jobs", got)
		}
	})
}
