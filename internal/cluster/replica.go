package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"gzkp/internal/service"
	"gzkp/internal/telemetry"
)

// Replica is one gzkp-coord process in a k-replica coordinator group.
// Exactly one replica leads at a time: the leader runs the real
// Coordinator (prober, placement, job forwarding) and holds a
// time-bounded lease it renews by shipping journal entries to every
// standby each LeaseInterval. Standbys ingest the journal, serve
// read-only endpoints, 307-redirect writes to the leader, and — when the
// lease goes LeaseTTL stale — elect a successor: the reachable standby
// with the longest journal (ties to the lowest peer index) promotes under
// a fresh epoch, re-probes the fleet, re-installs journaled circuits, and
// re-drives every accepted-but-unfinished job.
//
// Split-brain is bounded by epochs plus, for k >= 3, a majority gate:
// every replicate call carries the sender's epoch, a receiver that knows
// a higher epoch answers 409 with it, and a leader that sees a higher
// epoch (or an equal epoch from a lower-indexed peer) steps down
// immediately — so two leaders that can reach each other overlap for at
// most one heartbeat round, during which the node-side client-job dedupe
// makes double-forwarded work harmless. Mutually UNREACHABLE leaders are
// a different story: in a symmetric partition each side would elect its
// own leader and both would lead until the partition heals, at which
// point epoch/index arbitration converges within one heartbeat round and
// the loser's unreplicated entries are truncated (accepted jobs recorded
// only there are dropped). Groups of three or more close that window by
// refusing to promote without sight of a majority of the group; a
// two-replica group cannot (a dead leader and a partitioned one look
// identical to the lone standby), so k=2 accepts the partition caveat in
// exchange for failover availability.

// Role is a replica's current position in the group.
type Role int

const (
	// RoleStandby ingests the journal and redirects writes.
	RoleStandby Role = iota
	// RoleLeader runs the Coordinator and replicates the journal.
	RoleLeader
)

func (r Role) String() string {
	switch r {
	case RoleStandby:
		return "standby"
	case RoleLeader:
		return "leader"
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// PeerSpec names one coordinator replica.
type PeerSpec struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// ReplicaConfig wires one replica. Peer order is significant: it breaks
// election ties, and the first peer leads a fresh group.
type ReplicaConfig struct {
	// Self is this replica's name; it must appear in Peers.
	Self string
	// Peers is the full replica group, identical on every member.
	Peers []PeerSpec
	// LeaseInterval paces leader heartbeats (default 500ms).
	LeaseInterval time.Duration
	// LeaseTTL is how stale the lease may go before standbys elect
	// (default 4x LeaseInterval).
	LeaseTTL time.Duration
	// ReplicateTimeout bounds one replicate call (default 10s: the first
	// heartbeat after a registration ships a key bundle).
	ReplicateTimeout time.Duration
	// Cluster configures the Coordinator the leader runs. Registry and
	// Client are shared with the replica layer.
	Cluster Config
	// Logf receives role transitions and takeover reports (nil: silent).
	Logf func(format string, args ...any)
}

func (c ReplicaConfig) withDefaults() ReplicaConfig {
	if c.LeaseInterval <= 0 {
		c.LeaseInterval = 500 * time.Millisecond
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 4 * c.LeaseInterval
	}
	if c.ReplicateTimeout <= 0 {
		c.ReplicateTimeout = 10 * time.Second
	}
	return c
}

// maxEntriesPerBeat caps one heartbeat's journal batch; a lagging standby
// catches up across consecutive beats.
const maxEntriesPerBeat = 256

// maxReplicateBody caps a replicate request body (entries carry key
// bundles, which share the node-side 64MiB import cap; base64-encoded a
// single entry stays well under this).
const maxReplicateBody = 128 << 20

// maxBatchBytes caps one batch's encoded entries at half the receiver's
// body cap, leaving headroom for the envelope and encoding overhead. A
// single oversized entry still ships alone (Journal.Since always allows
// one), so a key-bundle burst can never assemble a batch the receiver
// must reject — which would wedge replication forever, since the leader
// would resend the identical oversized batch every beat.
const maxBatchBytes = maxReplicateBody / 2

// Replica implements http.Handler: mount it where a plain coordinator
// handler would go.
type Replica struct {
	cfg     ReplicaConfig
	reg     *telemetry.Registry
	events  *telemetry.EventLog // shared with every coordinator this replica promotes
	client  *http.Client
	journal *Journal
	selfIdx int
	// now is the lease clock: every read and write of lastBeat goes
	// through it (time.Now outside tests).
	now func() time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	role     Role
	epoch    uint64
	leader   string // current known leader name ("" = unknown)
	lastBeat time.Time
	coord    *Coordinator
	handler  http.Handler      // NewHandler(coord) while leading
	acked    map[string]uint64 // per-peer highest acknowledged seq

	cHeartbeats, cHeartbeatFailures     *telemetry.Counter
	cPromotions, cStepdowns, cElections *telemetry.Counter
	gIsLeader, gEpoch                   *telemetry.Gauge
}

// NewReplica validates the group config and prepares (but does not start)
// a replica. Call Start to join the group.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: replica needs at least one peer (itself)")
	}
	if len(cfg.Cluster.Nodes) == 0 {
		return nil, errors.New("cluster: replica needs at least one prover node")
	}
	selfIdx := -1
	for i, p := range cfg.Peers {
		if p.Name == cfg.Self {
			selfIdx = i
		}
	}
	if selfIdx < 0 {
		return nil, fmt.Errorf("cluster: self %q not in peer list", cfg.Self)
	}
	if cfg.Cluster.Registry == nil {
		cfg.Cluster.Registry = telemetry.NewRegistry()
	}
	if cfg.Cluster.Client == nil {
		cfg.Cluster.Client = &http.Client{}
	}
	reg := cfg.Cluster.Registry
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		cfg: cfg, reg: reg, events: cfg.Cluster.Events,
		client:  cfg.Cluster.Client,
		journal: NewJournal(reg), selfIdx: selfIdx, now: time.Now,
		ctx: ctx, cancel: cancel,
		acked: map[string]uint64{},
	}
	r.cHeartbeats = reg.Counter("cluster.ha.heartbeats")
	r.cHeartbeatFailures = reg.Counter("cluster.ha.heartbeat_failures")
	r.cPromotions = reg.Counter("cluster.ha.promotions")
	r.cStepdowns = reg.Counter("cluster.ha.stepdowns")
	r.cElections = reg.Counter("cluster.ha.elections")
	r.gIsLeader = reg.Gauge("cluster.ha.is_leader")
	r.gEpoch = reg.Gauge("cluster.ha.epoch")
	return r, nil
}

// Start joins the group and runs the control loop.
func (r *Replica) Start() {
	r.join()
	r.wg.Add(1)
	go r.run()
}

// join is Start without the loop. The first peer runs an election at
// once: a fresh group gets its leader without waiting out a TTL (if the
// first peer is down, the others elect past it after one), and a restarted
// first peer adopts the live leader or defers to a longer journal instead
// of claiming epoch 1 and truncating the group's journal to its empty one.
// Everyone else starts as a standby with a fresh lease.
func (r *Replica) join() {
	if r.selfIdx == 0 {
		r.elect()
	}
	r.mu.Lock()
	if r.lastBeat.IsZero() {
		r.lastBeat = r.now()
	}
	r.mu.Unlock()
}

// Journal exposes the replica's journal (for tests and debugging).
func (r *Replica) Journal() *Journal { return r.journal }

// Registry exposes the shared metrics registry.
func (r *Replica) Registry() *telemetry.Registry { return r.reg }

// Role reports the replica's current role.
func (r *Replica) Role() Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role
}

// Epoch reports the highest epoch this replica has seen.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Leader reports the current known leader name ("" if unknown).
func (r *Replica) Leader() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leader
}

// Coordinator returns the inner Coordinator while leading (nil otherwise).
func (r *Replica) Coordinator() *Coordinator {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.coord
}

// Close stops the replica (run loop, then the coordinator if leading).
// It performs no drain; use the coordinator's Drain first.
func (r *Replica) Close() {
	r.cancel()
	r.wg.Wait()
	r.mu.Lock()
	coord := r.coord
	r.coord = nil
	r.handler = nil
	r.mu.Unlock()
	if coord != nil {
		coord.detachJournal()
		coord.Close()
	}
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

func (r *Replica) peerIndex(name string) int {
	for i, p := range r.cfg.Peers {
		if p.Name == name {
			return i
		}
	}
	return -1
}

func (r *Replica) peerURL(name string) string {
	for _, p := range r.cfg.Peers {
		if p.Name == name {
			return p.URL
		}
	}
	return ""
}

// run is the replica's single control loop: it steps every LeaseInterval,
// and a leader also steps eagerly on journal appends.
func (r *Replica) run() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.LeaseInterval)
	defer t.Stop()
	for {
		changed := r.journal.Changed()
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
		case <-changed:
			if r.Role() != RoleLeader {
				continue // standbys ingest; only leaders ship eagerly
			}
		}
		r.step()
	}
}

// step is one turn of the control loop: a leader heartbeats every peer,
// a standby elects if its lease has expired.
func (r *Replica) step() {
	if r.Role() == RoleLeader {
		r.heartbeatAll()
	} else {
		r.maybeElect()
	}
}

// --- leader side -----------------------------------------------------

// heartbeatAll ships one round to every peer at once, then settles any
// 409s in peer order, so the round's outcome does not depend on which
// reply lands first.
func (r *Replica) heartbeatAll() {
	conflicts := make([]*replicateResponse, len(r.cfg.Peers))
	var wg sync.WaitGroup
	for i, p := range r.cfg.Peers {
		if i == r.selfIdx {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			conflicts[i] = r.heartbeatOne(p)
		}()
	}
	wg.Wait()
	for _, c := range conflicts {
		if c != nil {
			r.onConflict(c.Epoch, c.Leader)
		}
	}
}

// heartbeatOne ships the journal past peer's ack and records the new ack;
// it returns the peer's competing claim when the peer answers 409.
func (r *Replica) heartbeatOne(peer PeerSpec) *replicateResponse {
	r.mu.Lock()
	if r.role != RoleLeader {
		r.mu.Unlock()
		return nil
	}
	epoch := r.epoch
	from := r.acked[peer.Name]
	r.mu.Unlock()

	entries := r.journal.Since(from, maxEntriesPerBeat, maxBatchBytes)
	body, err := json.Marshal(replicateRequest{
		From: r.cfg.Self, Epoch: epoch, FromSeq: from, Entries: entries,
	})
	if err != nil {
		r.cHeartbeatFailures.Add(1)
		return nil
	}
	ctx, cancel := context.WithTimeout(r.ctx, r.cfg.ReplicateTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		peer.URL+"/v1/cluster/replicate", bytes.NewReader(body))
	if err != nil {
		r.cHeartbeatFailures.Add(1)
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	r.cHeartbeats.Add(1)
	if err != nil {
		r.cHeartbeatFailures.Add(1)
		return nil
	}
	defer resp.Body.Close()
	var rr replicateResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rr); err != nil {
		r.cHeartbeatFailures.Add(1)
		return nil
	}
	switch resp.StatusCode {
	case http.StatusOK:
		// The peer's ack is its true contiguous seq and is authoritative
		// in BOTH directions: a lower ack means the peer holds less than
		// we believed (it truncated a diverged tail, or our belief is a
		// stale leftover from an earlier reign) and we must re-send from
		// there — raising-only would wedge replication to that peer
		// forever while its lease keeps renewing.
		r.mu.Lock()
		r.acked[peer.Name] = rr.Ack
		r.mu.Unlock()
	case http.StatusConflict:
		return &rr
	default:
		r.cHeartbeatFailures.Add(1)
	}
	return nil
}

// onConflict handles a 409 from a peer that knows a competing claim: a
// higher epoch always wins; an equal epoch goes to the lower peer index.
func (r *Replica) onConflict(epoch uint64, leader string) {
	r.mu.Lock()
	if r.role != RoleLeader {
		r.mu.Unlock()
		return
	}
	lIdx := r.peerIndex(leader)
	yield := epoch > r.epoch ||
		(epoch == r.epoch && leader != r.cfg.Self && lIdx >= 0 && lIdx < r.selfIdx)
	r.mu.Unlock()
	if yield {
		r.stepDown(epoch, leader)
	}
}

// stepDown demotes a deposed leader: detach the journal first so its
// dying job goroutines cannot append to a log that now belongs to the
// new leader's line, then close the coordinator in the background.
func (r *Replica) stepDown(epoch uint64, leader string) {
	r.mu.Lock()
	if r.role != RoleLeader {
		r.mu.Unlock()
		return
	}
	coord := r.coord
	r.coord = nil
	r.handler = nil
	r.role = RoleStandby
	if epoch > r.epoch {
		r.epoch = epoch
	}
	r.leader = leader
	r.lastBeat = r.now()
	epochNow := r.epoch
	r.mu.Unlock()
	r.cStepdowns.Add(1)
	r.gIsLeader.Set(0)
	r.gEpoch.Set(float64(epochNow))
	r.events.Log(telemetry.LevelWarn, "ha", "stepdown", map[string]any{
		"replica": r.cfg.Self, "epoch": epochNow, "new_leader": leader,
	})
	r.logf("replica %s: stepping down (epoch %d, leader %s)", r.cfg.Self, epochNow, leader)
	if coord != nil {
		coord.detachJournal()
		go coord.Close()
	}
}

// --- standby side ----------------------------------------------------

func (r *Replica) maybeElect() {
	r.mu.Lock()
	expired := r.now().Sub(r.lastBeat) > r.cfg.LeaseTTL
	r.mu.Unlock()
	if expired {
		r.elect()
	}
}

// elect runs one election round from this standby's point of view: adopt
// any reachable live leader; otherwise promote iff no reachable standby
// is fresher (longer journal, or equal journal and lower peer index) —
// and, in groups of three or more, iff this standby can see a majority
// of the group (itself included). The majority gate stops both sides of
// a symmetric partition from leading at once: the minority side keeps
// electing but never promotes. Two-replica groups cannot distinguish "a
// dead leader" from "a partitioned one", so k=2 trades that guarantee
// for availability and promotes on lease expiry alone (see the package
// comment for the reconciliation consequences).
func (r *Replica) elect() {
	r.cElections.Add(1)
	r.events.Log(telemetry.LevelDebug, "ha", "election", map[string]any{
		"replica": r.cfg.Self, "journal_seq": r.journal.Seq(),
	})
	mySeq := r.journal.Seq()
	r.mu.Lock()
	maxEpoch := r.epoch
	r.mu.Unlock()

	// Query every peer at once under one LeaseTTL deadline: a live leader
	// on a saturated host may answer late, but it is not taken for dead
	// sooner than the lease itself allows, and hung peers delay an election
	// by one LeaseTTL however many there are.
	ctx, cancel := context.WithTimeout(r.ctx, r.cfg.LeaseTTL)
	defer cancel()
	infos := make([]*roleInfo, len(r.cfg.Peers))
	var wg sync.WaitGroup
	for idx, p := range r.cfg.Peers {
		if p.Name == r.cfg.Self {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			infos[idx], _ = r.queryRole(ctx, p)
		}()
	}
	wg.Wait()

	defer2 := false
	reachable := 0
	for idx, p := range r.cfg.Peers {
		info := infos[idx]
		if info == nil {
			continue
		}
		reachable++
		if info.Epoch > maxEpoch {
			maxEpoch = info.Epoch
		}
		if info.Role == RoleLeader.String() {
			// A live leader exists — our lease view was stale (partition,
			// slow beat). Adopt it and stand down from the election.
			r.mu.Lock()
			if r.role == RoleStandby {
				if info.Epoch > r.epoch {
					r.epoch = info.Epoch
				}
				r.leader = p.Name
				r.lastBeat = r.now()
			}
			r.mu.Unlock()
			return
		}
		if info.Seq > mySeq || (info.Seq == mySeq && idx < r.selfIdx) {
			defer2 = true // a fresher (or tie-winning) standby will promote
		}
	}
	if defer2 {
		return
	}
	if k := len(r.cfg.Peers); k >= 3 && (reachable+1)*2 <= k {
		r.logf("replica %s: lease expired but only %d/%d peers reachable; refusing to promote without a majority",
			r.cfg.Self, reachable, k-1)
		return
	}
	// A beat that landed while the peers were queried renews the lease:
	// the leader is alive, only slow to answer.
	r.mu.Lock()
	renewed := r.now().Sub(r.lastBeat) <= r.cfg.LeaseTTL
	r.mu.Unlock()
	if renewed {
		return
	}
	r.promote(maxEpoch + 1)
}

// queryRole asks a peer for its role, within ctx's deadline.
func (r *Replica) queryRole(ctx context.Context, p PeerSpec) (*roleInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/v1/cluster/role", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: role query to %s: HTTP %d", p.Name, resp.StatusCode)
	}
	var info roleInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// promote makes this replica the leader under epoch and rebuilds the
// cluster control plane from the journal: fresh Coordinator, synchronous
// fleet re-probe, journaled circuits re-installed (keys and all, no node
// cooperation needed), node inventories adopted, and every
// accepted-but-unfinished job re-driven in accept order. Re-forwards are
// idempotent: they carry the cluster job id as the node-side client job
// key, so a node already running the job attaches instead of re-proving.
func (r *Replica) promote(epoch uint64) {
	r.mu.Lock()
	if r.role != RoleStandby {
		r.mu.Unlock()
		return
	}
	r.role = RoleLeader
	r.epoch = epoch
	r.leader = r.cfg.Self
	// Forget any acks recorded during an earlier reign: peers may have
	// truncated below them since (a diverged-tail rebuild under another
	// leader), and a from > peer-seq heartbeat would never resync — the
	// receiver acks lower but a raise-only leader ignores it, wedging
	// replication while the standby's lease keeps renewing. Starting
	// every peer at 0 also re-runs the diverged-tail truncation: the
	// first batch ships from the log's base, so a follower carrying a
	// dead leader's longer tail is forced onto this leader's line.
	r.acked = map[string]uint64{}
	r.mu.Unlock()
	r.cPromotions.Add(1)
	r.gIsLeader.Set(1)
	r.gEpoch.Set(float64(epoch))
	r.events.Log(telemetry.LevelWarn, "ha", "promoted", map[string]any{
		"replica": r.cfg.Self, "epoch": epoch, "journal_seq": r.journal.Seq(),
	})
	r.logf("replica %s: promoting to leader (epoch %d, journal %s)",
		r.cfg.Self, epoch, r.journal.Summary())

	ccfg := r.cfg.Cluster
	ccfg.ID = r.cfg.Self
	ccfg.Journal = r.journal
	ccfg.Registry = r.reg
	ccfg.Client = r.client
	coord, err := New(ccfg)
	if err != nil {
		// Config was validated in NewReplica; this cannot happen outside
		// programmer error. Fail loudly rather than lead without a brain.
		panic(fmt.Sprintf("cluster: promote %s: %v", r.cfg.Self, err))
	}
	for _, rec := range r.journal.CircuitRecords() {
		coord.InstallCircuit(rec)
	}
	coord.probeAll()
	coord.AdoptCircuits()

	r.mu.Lock()
	if r.role != RoleLeader { // closed or deposed mid-takeover
		r.mu.Unlock()
		coord.detachJournal()
		coord.Close()
		return
	}
	r.coord = coord
	r.handler = NewHandler(coord)
	r.mu.Unlock()
	// Claim the lease before any peer's TTL expires, then re-drive. A
	// round that deposes this leader leaves the jobs to the winner.
	r.heartbeatAll()
	if r.Role() != RoleLeader {
		return
	}
	redriven := 0
	for _, v := range r.journal.UnfinishedJobs() {
		if _, err := coord.Redrive(v.ID, v.CircuitID, v.Public, v.Secret, v.Node, v.TraceID); err == nil {
			redriven++
		}
	}
	if redriven > 0 {
		r.logf("replica %s: re-driving %d unfinished jobs", r.cfg.Self, redriven)
	}
}

// --- wire types ------------------------------------------------------

type replicateRequest struct {
	From    string  `json:"from"`
	Epoch   uint64  `json:"epoch"`
	FromSeq uint64  `json:"from_seq"`
	Entries []Entry `json:"entries,omitempty"`
}

type replicateResponse struct {
	Ack    uint64 `json:"ack"`
	Epoch  uint64 `json:"epoch"`
	Leader string `json:"leader,omitempty"`
}

type roleInfo struct {
	Self   string `json:"self"`
	Role   string `json:"role"`
	Epoch  uint64 `json:"epoch"`
	Seq    uint64 `json:"seq"`
	Leader string `json:"leader,omitempty"`
}

// --- HTTP surface ----------------------------------------------------

// ServeHTTP multiplexes the replica: group-internal endpoints first, then
// the full coordinator API while leading, read-only + 307 while standing
// by.
func (r *Replica) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	role, handler, leader := r.role, r.handler, r.leader
	r.mu.Unlock()
	switch {
	case req.URL.Path == "/v1/cluster/replicate" && req.Method == http.MethodPost:
		r.handleReplicate(w, req)
	case req.URL.Path == "/v1/cluster/role" && req.Method == http.MethodGet:
		r.handleRole(w)
	case req.URL.Path == "/metrics" && req.Method == http.MethodGet:
		service.WriteMetrics(w, req, r.reg.Snapshot())
	case req.URL.Path == "/v1/cluster/events" && req.Method == http.MethodGet:
		// The event log is shared across roles (standbys record elections
		// too), so every replica serves it locally — no
		// redirect, events must stay observable while the leader is down.
		service.WriteEvents(w, req, r.events)
	case req.URL.Path == "/healthz":
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": role.String()})
	case role != RoleLeader:
		r.serveStandby(w, req, leader)
	case handler == nil:
		w.Header().Set("Retry-After", "1")
		service.WriteJSON(w, http.StatusServiceUnavailable, service.APIError{Error: "promoting", RetryAfter: 1})
	default:
		handler.ServeHTTP(w, req)
	}
}

func (r *Replica) handleRole(w http.ResponseWriter) {
	r.mu.Lock()
	info := roleInfo{
		Self: r.cfg.Self, Role: r.role.String(),
		Epoch: r.epoch, Leader: r.leader,
	}
	r.mu.Unlock()
	info.Seq = r.journal.Seq()
	service.WriteJSON(w, http.StatusOK, info)
}

// handleReplicate is the standby's ingest path and the epoch arbiter: a
// sender outside the peer list gets 403; a stale sender gets 409 with the
// higher claim; a valid sender renews the lease and gets the contiguous
// ack. A leader that receives a replicate from a peer with a winning claim
// steps down right here.
func (r *Replica) handleReplicate(w http.ResponseWriter, req *http.Request) {
	var in replicateRequest
	req.Body = http.MaxBytesReader(w, req.Body, maxReplicateBody)
	if err := json.NewDecoder(req.Body).Decode(&in); err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.APIError{Error: fmt.Sprintf("bad replicate body: %v", err)})
		return
	}
	senderIdx := r.peerIndex(in.From)
	if senderIdx < 0 {
		service.WriteJSON(w, http.StatusForbidden, service.APIError{Error: fmt.Sprintf("replicate from %q: not in the peer list", in.From)})
		return
	}
	r.mu.Lock()
	if in.Epoch < r.epoch {
		resp := replicateResponse{Ack: r.journal.Seq(), Epoch: r.epoch, Leader: r.leader}
		r.mu.Unlock()
		service.WriteJSON(w, http.StatusConflict, resp)
		return
	}
	if r.role == RoleLeader {
		if in.Epoch == r.epoch && senderIdx > r.selfIdx {
			// Equal-epoch duel: the lower index keeps the lease.
			resp := replicateResponse{Ack: r.journal.Seq(), Epoch: r.epoch, Leader: r.cfg.Self}
			r.mu.Unlock()
			service.WriteJSON(w, http.StatusConflict, resp)
			return
		}
		r.mu.Unlock()
		r.stepDown(in.Epoch, in.From)
		r.mu.Lock()
	}
	if in.Epoch > r.epoch {
		r.epoch = in.Epoch
		r.gEpoch.Set(float64(r.epoch))
	}
	r.leader = in.From
	r.lastBeat = r.now()
	r.mu.Unlock()
	ack := r.journal.Ingest(in.FromSeq, in.Entries)
	service.WriteJSON(w, http.StatusOK, replicateResponse{Ack: ack, Epoch: in.Epoch, Leader: in.From})
}

// serveStandby answers what the journal can answer and 307-redirects the
// rest to the leader. Go's http.Client follows 307 re-sending the body,
// so clients of a standby transparently reach the leader.
func (r *Replica) serveStandby(w http.ResponseWriter, req *http.Request, leader string) {
	switch {
	case req.URL.Path == "/readyz":
		w.Header().Set("Retry-After", "1")
		service.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "standby", "leader": leader,
		})
		return
	case req.URL.Path == "/v1/nodes" && req.Method == http.MethodGet:
		// Topology from config, liveness from the journal: good enough for
		// dashboards without bothering the leader.
		out := make([]NodeStatus, 0, len(r.cfg.Cluster.Nodes))
		for _, ns := range r.cfg.Cluster.Nodes {
			name := ns.Name
			if name == "" {
				name = ns.URL
			}
			out = append(out, NodeStatus{Name: name, URL: ns.URL, Alive: r.journal.NodeAlive(name)})
		}
		service.WriteJSON(w, http.StatusOK, out)
		return
	case strings.HasPrefix(req.URL.Path, "/v1/jobs/") && req.Method == http.MethodGet:
		id := strings.TrimPrefix(req.URL.Path, "/v1/jobs/")
		if st, ok := r.journal.JobView(id); ok {
			service.WriteJSON(w, http.StatusOK, st)
			return
		}
		// The journal lags the leader by up to a heartbeat (plus the
		// unreplicated window): an id we don't hold is NOT authoritatively
		// absent, and a 404 here would read as Fatal to a client polling a
		// just-accepted job. Fall through to the leader redirect — only
		// the leader may say 404.
	case strings.HasPrefix(req.URL.Path, "/v1/circuits/") && req.Method == http.MethodGet:
		id := strings.TrimPrefix(req.URL.Path, "/v1/circuits/")
		if !strings.Contains(id, "/") {
			if info, ok := r.journal.CircuitInfo(id); ok {
				info.Cached = true
				service.WriteJSON(w, http.StatusOK, info)
				return
			}
			// Same lag argument as jobs: redirect, don't 404.
		}
	}
	if leader == "" || leader == r.cfg.Self {
		w.Header().Set("Retry-After", "1")
		service.WriteJSON(w, http.StatusServiceUnavailable, service.APIError{Error: "no leader known", RetryAfter: 1})
		return
	}
	base := r.peerURL(leader)
	if base == "" {
		w.Header().Set("Retry-After", "1")
		service.WriteJSON(w, http.StatusServiceUnavailable, service.APIError{Error: "leader unknown to peer list", RetryAfter: 1})
		return
	}
	http.Redirect(w, req, base+req.URL.RequestURI(), http.StatusTemporaryRedirect)
}
