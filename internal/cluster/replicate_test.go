package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// replicaAt builds replica self of the r0/r1/r2 group in the given role
// and epoch, with no coordinator behind it and base appended to its
// journal.
func replicaAt(t testing.TB, self string, role Role, epoch uint64, base []Entry) *Replica {
	t.Helper()
	cfg := soloReplicaConfig(self, []PeerSpec{
		{Name: "r0", URL: deadURL}, {Name: "r1", URL: deadURL}, {Name: "r2", URL: deadURL},
	})
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep.role, rep.epoch, rep.leader = role, epoch, "r0"
	if role == RoleLeader {
		rep.leader = self
	}
	for _, e := range base {
		rep.journal.Append(e)
	}
	return rep
}

func postReplicate(rep *Replica, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/cluster/replicate", bytes.NewReader(body))
	rep.ServeHTTP(rec, req)
	return rec
}

// TestReplicateRejectsUnknownSender: a replicate from a name outside the
// peer list is refused with 403 before it touches any state, on a leader
// and on a standby alike. Before the check, such a replicate with a high
// epoch deposed the leader and truncated its journal to the sender's.
func TestReplicateRejectsUnknownSender(t *testing.T) {
	body := []byte(`{"from":"mallory","epoch":99,"from_seq":0}`)
	for _, role := range []Role{RoleLeader, RoleStandby} {
		rep := replicaAt(t, "r1", role, 2, []Entry{acceptedEntry("j1", "c1")})
		leader := rep.Leader()
		rec := postReplicate(rep, body)
		if rec.Code != http.StatusForbidden {
			t.Fatalf("%s: replicate from mallory = %d, want 403", role, rec.Code)
		}
		if rep.Role() != role || rep.Epoch() != 2 || rep.Leader() != leader || rep.Journal().Seq() != 1 {
			t.Fatalf("%s: state changed to role=%s epoch=%d leader=%q seq=%d",
				role, rep.Role(), rep.Epoch(), rep.Leader(), rep.Journal().Seq())
		}
		rep.Close()
	}
}

// fuzzBase is the journal both fuzz replicas start from: one finished job,
// one accepted job and a node eviction.
var fuzzBase = []Entry{
	acceptedEntry("j1", "c1"), jobEvent("j1", JobEventForwarded, "n0"), jobEvent("j1", JobEventDone, "n0"),
	acceptedEntry("j2", "c1"), {Kind: EntryNode, Node: &NodeRecord{Name: "n1", Alive: false}},
}

// appliedState is a deep copy of a journal's applied state.
type appliedState struct {
	Circs  map[string]CircuitRecord
	Jobs   map[string]jobView
	JobIDs []string
	Nodes  map[string]bool
}

func snapshotApplied(jl *Journal) appliedState {
	s := appliedState{Circs: map[string]CircuitRecord{}, Jobs: map[string]jobView{}, Nodes: map[string]bool{}}
	for id, c := range jl.circs {
		s.Circs[id] = *c
	}
	for id, v := range jl.jobs {
		s.Jobs[id] = *v
	}
	s.JobIDs = append(s.JobIDs, jl.jobIDs...)
	for n, a := range jl.nodes {
		s.Nodes[n] = a
	}
	return s
}

// FuzzReplicateIngest feeds arbitrary replicate bodies to a standby and a
// leader. Whatever arrives, the answer is a known status, the log stays
// dense, the incrementally applied state equals a rebuild from the log
// (what a takeover relies on), and cluster.journal_bytes matches the log.
func FuzzReplicateIngest(f *testing.F) {
	batch := func(from uint64, entries ...Entry) []byte {
		for i := range entries {
			entries[i].Seq = from + 1 + uint64(i)
		}
		b, _ := json.Marshal(replicateRequest{From: "r0", Epoch: 3, FromSeq: from, Entries: entries})
		return b
	}
	n := uint64(len(fuzzBase))
	f.Add(batch(n, acceptedEntry("j3", "c1"), jobEvent("j3", JobEventForwarded, "n2"))) // valid batch
	f.Add(batch(n+2, acceptedEntry("j4", "c1")))                                        // gap
	f.Add(batch(2, acceptedEntry("j5", "c1"), jobEvent("j5", JobEventFailed, "")))      // diverged tail
	f.Add(batch(n, jobEvent("j6", JobEventDone, "n0"), acceptedEntry("j6", "c1")))      // accepted after terminal
	big := acceptedEntry("j7", "c1")
	big.Job.Secret = []string{strings.Repeat("7", 256<<10)}
	f.Add(batch(n, big)) // oversized entry
	f.Add([]byte(`{"from":"mallory","epoch":9,"from_seq":0}`))
	f.Add([]byte(`{"from":"r0","epoch":1,"from_seq":0}`))
	f.Add([]byte(`{"from":"r0"`))

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, role := range []Role{RoleStandby, RoleLeader} {
			rep := replicaAt(t, "r1", role, 2, fuzzBase)
			rec := postReplicate(rep, body)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusForbidden, http.StatusConflict:
			default:
				t.Fatalf("%s: status %d", role, rec.Code)
			}
			jl := rep.journal
			jl.mu.Lock()
			if jl.seq != uint64(len(jl.log)) {
				t.Fatalf("%s: seq %d with %d entries", role, jl.seq, len(jl.log))
			}
			sum := 0
			for i, e := range jl.log {
				if e.Seq != uint64(i+1) {
					t.Fatalf("%s: log[%d].Seq = %d", role, i, e.Seq)
				}
				b, _ := json.Marshal(e)
				sum += len(b)
			}
			if got := jl.gBytes.Value(); got != float64(sum) {
				t.Fatalf("%s: cluster.journal_bytes = %v, entries measure %d", role, got, sum)
			}
			incremental := snapshotApplied(jl)
			jl.rebuildLocked()
			if rebuilt := snapshotApplied(jl); !reflect.DeepEqual(incremental, rebuilt) {
				t.Fatalf("%s: applied state differs from a rebuild:\n%+v\n%+v", role, incremental, rebuilt)
			}
			jl.mu.Unlock()
			rep.Close()
		}
	})
}
