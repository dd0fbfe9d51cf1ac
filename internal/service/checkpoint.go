package service

import "sort"

// MergeCheckpoints folds per-node drain checkpoints into one restorable
// cluster checkpoint. Circuits dedupe by content-hash id (the same spec
// registered on two replicas appears once). Job ids from different nodes
// can collide — every node numbers its own jobs job-%08d — so entries are
// namespaced "<node>/<job-id>", which keeps them unique across sources
// while staying stable for Restore's idempotency bookkeeping. Duplicate
// job ids within one node's checkpoint (a replayed file) collapse to the
// first occurrence. Nodes merge in name order so the output is
// deterministic; nil checkpoints are skipped, as are parts whose schema
// version this build cannot read (a valid-JSON checkpoint from a
// different schema must not be half-merged into silently wrong output).
func MergeCheckpoints(parts map[string]*Checkpoint) *Checkpoint {
	names := make([]string, 0, len(parts))
	for name := range parts {
		names = append(names, name)
	}
	sort.Strings(names)

	merged := &Checkpoint{Version: CheckpointVersion}
	seenCircuit := map[string]bool{}
	seenJob := map[string]bool{}
	for _, name := range names {
		cp := parts[name]
		if cp == nil || !cp.versionOK() {
			continue
		}
		for _, spec := range cp.Circuits {
			id := CircuitIDFor(spec)
			if seenCircuit[id] {
				continue
			}
			seenCircuit[id] = true
			merged.Circuits = append(merged.Circuits, spec)
		}
		for _, j := range cp.Jobs {
			id := name + "/" + j.JobID
			if seenJob[id] {
				continue
			}
			seenJob[id] = true
			merged.Jobs = append(merged.Jobs, CheckpointEntry{
				JobID: id, CircuitID: j.CircuitID,
				Public: append([]string(nil), j.Public...),
				Secret: append([]string(nil), j.Secret...),
			})
		}
	}
	return merged
}
