#!/usr/bin/env bash
# chaos-soak.sh — nightly 3-replica coordinator soak under one seeded
# chaos plan: rolling leader kills (A then B; C must survive) plus node
# partitions, with client load running throughout. Exits nonzero when any
# proof fails, any accepted job is lost, or the final survivor is not the
# expected leader. Run from the repo root; artifacts land in $ARTIFACTS.
#
#   ARTIFACTS=artifacts DURATION=25s RPS=4 ./scripts/chaos-soak.sh
set -euo pipefail

ARTIFACTS="${ARTIFACTS:-artifacts}"
DURATION="${DURATION:-25s}"
RPS="${RPS:-4}"
CHAOS_SEED="${CHAOS_SEED:-7}"
# One plan, shared verbatim by every replica: leaderkill steps advance on
# the named replica's own leadership heartbeats, partition steps on the
# acting leader's probe ticks — so a single spec choreographs the whole
# cluster. coordA (first leader) halts at its 60th round, coordB (next
# elected, lowest peer index) at its 80th, and the partitions strike n1
# during coordA's reign and n2 during coordB's. Halted replicas are
# restarted (supervisor-style, without the plan) so the group keeps its
# majority — killing two of three replicas permanently would wedge the
# survivor behind the election majority gate, by design.
CHAOS_PLAN="${CHAOS_PLAN:-leaderkill:coordA@60,leaderkill:coordB@80,partition:n1@15x4,partition:n2@20x4,probedelay:n0@?x3+50ms}"

mkdir -p "$ARTIFACTS"
BIN="$(mktemp -d)"
go build -o "$BIN/gzkp-serve" ./cmd/gzkp-serve
go build -o "$BIN/gzkp-coord" ./cmd/gzkp-coord
go build -o "$BIN/gzkp-loadgen" ./cmd/gzkp-loadgen

PIDS=()
cleanup() {
  # Kill the supervisors and any binaries they spawned from the temp dir.
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  pkill -9 -f "$BIN/gzkp" 2>/dev/null || true
}
trap cleanup EXIT

for i in 0 1 2; do
  "$BIN/gzkp-serve" -addr "localhost:2020$i" -prover cpu \
    > "$ARTIFACTS/node$i.log" 2>&1 &
  PIDS+=($!)
done
sleep 1

PEERS=coordA=http://localhost:20290,coordB=http://localhost:20291,coordC=http://localhost:20292
NODES=n0=http://localhost:20200,n1=http://localhost:20201,n2=http://localhost:20202

# supervise runs one replica under the chaos plan; when the plan halts it
# (exit 3), it is restarted once without the plan — the nightly models an
# orchestrator bringing a crashed coordinator back as a standby, which is
# also what keeps the election majority gate satisfied across both kills.
supervise() {
  name=$1 port=$2
  "$BIN/gzkp-coord" -addr "localhost:$port" -self "$name" -peers "$PEERS" -nodes "$NODES" \
    -lease-interval 100ms -probe-interval 200ms -fail-threshold 2 \
    -chaos "$CHAOS_PLAN" -chaos-seed "$CHAOS_SEED" \
    -trace-jsonl "$ARTIFACTS/$name.trace.jsonl" \
    -events "$ARTIFACTS/$name-events.jsonl" -event-level debug \
    > "$ARTIFACTS/$name.log" 2>&1 || status=$?
  if [ "${status:-0}" -eq 3 ]; then
    "$BIN/gzkp-coord" -addr "localhost:$port" -self "$name" -peers "$PEERS" -nodes "$NODES" \
      -lease-interval 100ms -probe-interval 200ms -fail-threshold 2 \
      > "$ARTIFACTS/$name-restart.log" 2>&1
  fi
}

for spec in coordA:20290 coordB:20291 coordC:20292; do
  supervise "${spec%%:*}" "${spec##*:}" &
  PIDS+=($!)
  # Stagger so coordA takes the initial lease deterministically.
  sleep 0.4
done
sleep 1

"$BIN/gzkp-loadgen" \
  -target http://localhost:20290,http://localhost:20291,http://localhost:20292 \
  -rps "$RPS" -duration "$DURATION" -mix 32,64 -retries 12 \
  -out "$ARTIFACTS/soak-report.json"
sleep 4  # let the surviving leader re-drive journal jobs to completion

for spec in coordA:20290 coordB:20291 coordC:20292; do
  name=${spec%%:*} port=${spec##*:}
  curl -sf "http://localhost:$port/v1/cluster/role" > "$ARTIFACTS/role-$name.json" || true
  curl -sf "http://localhost:$port/metrics" > "$ARTIFACTS/metrics-$name.json" || true
done
curl -sf "http://localhost:20292/v1/cluster/events?since=0" > "$ARTIFACTS/soak-events.json" || true

echo "--- coordinator logs (tails) ---"
tail -n 5 "$ARTIFACTS"/coord*.log

go run ./cmd/benchdiff -validate "$ARTIFACTS/soak-report.json"
ARTIFACTS="$ARTIFACTS" python3 - <<'EOF'
import json, os, re
art = os.environ["ARTIFACTS"]
doc = json.load(open(f"{art}/soak-report.json"))
by = {s["name"]: s for s in doc["samples"]}
sent, proved = by["sent"].get("n", 0), by["throughput"].get("n", 0)
assert by["failed"].get("n", 0) == 0, "soak produced failed proofs"
assert proved > 0, "soak produced no proofs"
# Client-side conservation: every submitted job must eventually prove,
# across two leader deaths and the node partitions.
assert proved == sent, f"only {proved}/{sent} submitted jobs proved"
assert by["coordinator_failovers"].get("n", 0) >= 1, "loadgen never failed over"

# Exactly one replica may end up leading (restarted replicas rejoin and
# can reclaim the lease after catching up, so we don't pin which one).
roles = {}
for name in ("coordA", "coordB", "coordC"):
    try:
        roles[name] = json.load(open(f"{art}/role-{name}.json"))
    except (OSError, ValueError):
        pass
leaders = [n for n, r in roles.items() if r.get("role") == "leader"]
assert len(roles) == 3, f"replica down after the soak: {sorted(roles)}"
assert len(leaders) == 1, f"want exactly one leader, got {leaders} in {roles}"

promotions = 0
for name in roles:
    m = json.load(open(f"{art}/metrics-{name}.json"))["counters"]
    promotions += m.get("cluster.ha.promotions", 0)
    assert m.get("cluster.jobs.failed", 0) == 0, f"{name} recorded failed jobs"
assert promotions >= 2, f"rolling kills should force >=2 promotions, saw {promotions}"

# Both scheduled kills must actually have fired (rolling, not just one),
# and the partitions must have struck while a leader was probing.
kills = 0
for name in ("coordA", "coordB"):
    if "halted by chaos plan" in open(f"{art}/{name}.log").read():
        kills += 1
assert kills == 2, f"expected 2 rolling leader kills, saw {kills}"
fired = open(f"{art}/coordA.log").read() + open(f"{art}/coordB.log").read()
assert re.search(r"chaos fired partition:", fired), "no partition event fired during the soak"
print("soak ok:", proved, "proofs, 0 failed,",
      by["coordinator_failovers"]["n"], "client failovers,",
      f"2 rolling leader kills, {promotions} promotions, leader={leaders[0]}")
EOF
