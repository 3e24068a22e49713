#!/usr/bin/env bash
# Sharded-serving smoke (ctest: shard_smoke; CI: shard-smoke): three
# qtserved workers behind qtrouterd on ephemeral ports.
#
# What it proves, the session steps via qtclient --verify (byte-for-byte
# snapshot comparison against a local replay twin):
#   1. The router is bit-invisible across all four algorithms, with
#      --migrate-every forcing live migrations mid-run (qtclient
#      --expect-migration fails if the router never moved a session).
#   2. The router's HTTP plane answers over real sockets: /healthz,
#      /shards and the daemon-side /rebalance (which scrapes every
#      worker's /metrics), then /drain?shard=0 moves shard 0's sessions
#      away and shuts its worker down (exit 0). A drained worker's close
#      is not a shard failure, so the router must not report one.
#   3. Killing a worker mid-run is survivable: the dead shard's parked
#      images + replay logs reconstruct its sessions on the survivor,
#      and the post-kill rounds still verify bit-exact.
#   4. Shutdown drains the whole fleet (router exit 0).
#
# HTTP requests go through bash's /dev/tcp, so the test needs no curl.
#
# Usage: shard_smoke.sh <qtserved> <qtrouterd> <qtclient>
set -euo pipefail

# Resolve to absolute paths: the smoke runs out of a temp directory.
QTSERVED=$(readlink -f "$1")
QTROUTERD=$(readlink -f "$2")
QTCLIENT=$(readlink -f "$3")

WORK=$(mktemp -d)
cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

WORKER_PIDS=()
for i in 1 2 3; do
  "$QTSERVED" --port=0 --port-file="w$i.port" \
    --http-port=0 --http-port-file="w$i.http" \
    --max-hot=8 --workers=2 --max-queue=256 &
  WORKER_PIDS+=($!)
done
for i in 1 2 3; do
  for _ in $(seq 100); do
    [ -s "w$i.port" ] && [ -s "w$i.http" ] && break
    sleep 0.1
  done
  [ -s "w$i.http" ] || { echo "shard_smoke: worker $i never published its ports"; exit 1; }
done

SHARDS="127.0.0.1:$(cat w1.port):$(cat w1.http)"
SHARDS+=",127.0.0.1:$(cat w2.port):$(cat w2.http)"
SHARDS+=",127.0.0.1:$(cat w3.port):$(cat w3.http)"
# migrate-every counts Step REQUESTS per session (not samples); the
# clients below send 4 per session, so 2 forces a hop mid-run.
"$QTROUTERD" --shards="$SHARDS" --port=0 --port-file=router.port \
  --http-port=0 --http-port-file=router.http \
  --migrate-every=2 --checkpoint-every=8 2>router.err &
ROUTER=$!
for _ in $(seq 100); do
  [ -s router.port ] && [ -s router.http ] && break
  sleep 0.1
done
[ -s router.http ] || { echo "shard_smoke: router never published its ports"; exit 1; }
RPORT=$(cat router.port)

# GET $1 from the router's HTTP plane; prints the whole response and
# fails unless the status is 200.
router_get() {
  local response
  exec 3<>"/dev/tcp/127.0.0.1/$(cat router.http)"
  printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
  response=$(cat <&3)
  exec 3<&-
  case "$response" in
    "HTTP/1.0 200 OK"*) printf '%s\n' "$response" ;;
    *) echo "shard_smoke: GET $1 answered: $response" >&2; return 1 ;;
  esac
}

# 1. All four algorithms through the router, migrations forced.
for algo in q_learning sarsa expected_sarsa double_q; do
  "$QTCLIENT" --shards="127.0.0.1:$RPORT" \
    --sessions=64 --rounds=4 --steps=128 --algorithm="$algo" \
    --verify --expect-migration
done

# 2. The HTTP plane, then a drain that retires worker 1 (shard 0).
grep -q '^ok$' <<<"$(router_get /healthz)"
grep -q '"draining":false' <<<"$(router_get /shards)"
grep -q '"moves":' <<<"$(router_get /rebalance)"
grep -q '{"ok":true}' <<<"$(router_get '/drain?shard=0')"
for _ in $(seq 300); do
  kill -0 "${WORKER_PIDS[0]}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${WORKER_PIDS[0]}" 2>/dev/null; then
  echo "shard_smoke: worker 1 still running 30 s after /drain?shard=0"
  exit 1
fi
rc=0
wait "${WORKER_PIDS[0]}" || rc=$?
[ "$rc" -eq 0 ] || { echo "shard_smoke: drained worker 1 exited $rc"; exit 1; }

# 3. Kill worker 3 (shard 2) halfway through a verified run: failover
#    must be bit-exact for both the failed-over sessions and everyone
#    else.
"$QTCLIENT" --shards="127.0.0.1:$RPORT" \
  --sessions=32 --rounds=4 --steps=128 --algorithm=q_learning \
  --verify --mid-run-cmd="kill ${WORKER_PIDS[2]}"

# 4. Clean fleet-wide shutdown.
"$QTCLIENT" --shards="127.0.0.1:$RPORT" \
  --sessions=1 --rounds=1 --steps=32 --shutdown
wait "$ROUTER"

# Only the killed worker was a failure; the drained one was not.
if grep -q "shard 0 failed" router.err; then
  echo "shard_smoke: the router reported drained shard 0 as failed:"
  cat router.err
  exit 1
fi
grep -q "shard 2 failed" router.err || {
  echo "shard_smoke: the router never reported killed shard 2 as failed:"
  cat router.err
  exit 1
}
echo "shard_smoke: OK"
