#!/usr/bin/env bash
# Smoke test for a slipd cluster: 3 slipd backends (each with its own
# durable -store-dir) behind one slipd-gateway. Asserts the cluster's
# three load-bearing claims end to end:
#
#   affinity    — the same spec POSTed twice lands on the same backend
#                 (X-Slipd-Backend) and the repeat is served "cached":true;
#   durability  — restarting the owning backend over the same -store-dir
#                 answers the repeat POST from disk (slip_castore_hits_total >= 1,
#                 no re-simulation) and GET /v1/results/{key} through the
#                 gateway returns byte-identical result JSON;
#   failover    — killing a backend re-routes its keys to the
#                 next-preferred backend, with the retry and the health
#                 ejection visible in the gateway's /metrics, and an
#                 administrative drain/undrain moves a key range away and
#                 back.
set -euo pipefail

GW_ADDR="${SLIPGW_ADDR:-127.0.0.1:18180}"
GW="http://$GW_ADDR"
B_HOST="127.0.0.1"
B_PORTS=(18181 18182 18183)

TMP=$(mktemp -d)
cd "$(dirname "$0")/.."
go build -o "$TMP/slipd" ./cmd/slipd
go build -o "$TMP/slipd-gateway" ./cmd/slipd-gateway

declare -A BPID # port -> pid
start_backend() { # $1 = port; store dir is stable per port so restarts reuse it
  local port=$1
  mkdir -p "$TMP/store-$port"
  "$TMP/slipd" -addr "$B_HOST:$port" -accesses 20000 -warmup 20000 \
    -queue 8 -store 16 -store-dir "$TMP/store-$port" -store-disk-mb 64 &
  BPID[$port]=$!
}

cleanup() {
  kill "${GWPID:-}" 2>/dev/null || true
  for pid in "${BPID[@]}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

for port in "${B_PORTS[@]}"; do start_backend "$port"; done

"$TMP/slipd-gateway" -addr "$GW_ADDR" \
  -backends "$B_HOST:${B_PORTS[0]},$B_HOST:${B_PORTS[1]},$B_HOST:${B_PORTS[2]}" \
  -accesses 20000 -warmup 20000 \
  -health-interval 500ms -health-timeout 500ms \
  -fail-threshold 3 -rise-threshold 1 -retry-backoff 50ms &
GWPID=$!

wait_200() { # $1 = url
  for _ in $(seq 1 100); do
    if curl -fsS "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "timed out waiting for $1"; exit 1
}
for port in "${B_PORTS[@]}"; do wait_200 "http://$B_HOST:$port/readyz"; done
wait_200 "$GW/readyz"
echo "3 backends + gateway up"

poll_done() { # $1 = job id; polls through the gateway's route table
  local body=""
  for _ in $(seq 1 300); do
    body=$(curl -fsS "$GW/v1/runs/$1")
    case "$body" in
      *'"state":"completed"'*) echo "$body"; return 0 ;;
      *'"state":"failed"'* | *'"state":"cancelled"'*)
        echo "job $1 did not complete: $body" >&2; return 1 ;;
    esac
    sleep 0.2
  done
  echo "job $1 timed out: $body" >&2; return 1
}

hdr() { sed -n "s/^$1: \\(.*\\)\\r\$/\\1/Ip" "$2"; }

# metric BASE PATTERN: fetch /metrics to a file, then grep it — piping
# straight into grep -q makes curl fail with EPIPE under pipefail.
metric() { curl -fsS "$1/metrics" -o "$TMP/metrics" && grep -Eq "$2" "$TMP/metrics"; }

# --- affinity: same spec twice -> same backend, second answer cached ----
REQ='{"workload":"milc","policy":"slip+abp","seed":7}'
BODY1=$(curl -fsS -D "$TMP/h1" -X POST -d "$REQ" "$GW/v1/runs")
HOME1=$(hdr x-slipd-backend "$TMP/h1")
KEY=$(hdr x-slipd-key "$TMP/h1")
ID=$(echo "$BODY1" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$HOME1" ] && [ -n "$KEY" ] && [ -n "$ID" ] || {
  echo "missing backend/key/id on first POST: $BODY1"; exit 1
}
poll_done "$ID" >/dev/null
echo "spec $KEY homed on $HOME1, job $ID completed"

BODY2=$(curl -fsS -D "$TMP/h2" -X POST -d "$REQ" "$GW/v1/runs")
HOME2=$(hdr x-slipd-backend "$TMP/h2")
[ "$HOME2" = "$HOME1" ] || { echo "affinity broken: $HOME1 then $HOME2"; exit 1; }
echo "$BODY2" | grep -q '"cached":true' || { echo "repeat POST not cached: $BODY2"; exit 1; }
echo "affinity confirmed: repeat POST hit the same backend's result store"

RESULT1=$(curl -fsS "$GW/v1/results/$KEY")
echo "$RESULT1" | grep -q '"full_system_pj"' || { echo "bad result fetch: $RESULT1"; exit 1; }

# --- durability: restart the owner on the same -store-dir ---------------
HOME_PORT=${HOME1##*:}
kill -TERM "${BPID[$HOME_PORT]}"
wait "${BPID[$HOME_PORT]}"
echo "backend $HOME1 drained and stopped"

start_backend "$HOME_PORT"
wait_200 "http://$B_HOST:$HOME_PORT/readyz"
# The memory store is empty after restart; the durable store must answer.
for _ in $(seq 1 100); do
  metric "$GW" "slipgw_backend_up\{backend=\"$HOME1\"\} 1" && break
  sleep 0.1
done
metric "$GW" "slipgw_backend_up\{backend=\"$HOME1\"\} 1" || {
  echo "gateway never restored $HOME1"; exit 1
}

BODY3=$(curl -fsS -D "$TMP/h3" -X POST -d "$REQ" "$GW/v1/runs")
HOME3=$(hdr x-slipd-backend "$TMP/h3")
[ "$HOME3" = "$HOME1" ] || { echo "post-restart POST went to $HOME3, want $HOME1"; exit 1; }
echo "$BODY3" | grep -q '"cached":true' || {
  echo "post-restart POST re-simulated instead of reading disk: $BODY3"; exit 1
}
metric "$HOME1" '^slip_castore_hits_total [1-9]' || {
  echo "restart served the result without a castore hit"; exit 1
}
RESULT2=$(curl -fsS "$GW/v1/results/$KEY")
[ "$RESULT2" = "$RESULT1" ] || {
  echo "result changed across restart:"; echo "before: $RESULT1"; echo "after:  $RESULT2"; exit 1
}
echo "durability confirmed: restart answered from disk, result JSON byte-identical"

# --- failover: kill a backend, its keys re-route ------------------------
# Pick a spec homed off $HOME1: the drain check below needs $HOME1 alive.
HOMEB=$HOME1
for seed in 11 12 13 14 15 16 17 18 19 20; do
  REQB="{\"workload\":\"sphinx3\",\"policy\":\"slip\",\"seed\":$seed}"
  curl -fsS -D "$TMP/h4" -X POST -d "$REQB" "$GW/v1/runs" >/dev/null
  HOMEB=$(hdr x-slipd-backend "$TMP/h4")
  [ "$HOMEB" != "$HOME1" ] && break
done
[ "$HOMEB" != "$HOME1" ] || { echo "no seed in 11..20 homed off $HOME1"; exit 1; }
PORTB=${HOMEB##*:}
kill -KILL "${BPID[$PORTB]}"
wait "${BPID[$PORTB]}" 2>/dev/null || true
echo "killed backend $HOMEB (owner of the second spec)"

BODY5=$(curl -fsS -D "$TMP/h5" -X POST -d "$REQB" "$GW/v1/runs")
HOME5=$(hdr x-slipd-backend "$TMP/h5")
[ -n "$HOME5" ] && [ "$HOME5" != "$HOMEB" ] || {
  echo "no failover: POST answered by $HOME5 (killed $HOMEB): $BODY5"; exit 1
}
echo "failover confirmed: re-routed to $HOME5"

metric "$GW" "slipgw_retries_total\{backend=\"$HOMEB\"\} [1-9]" || {
  echo "failover retry not counted in gateway /metrics"; exit 1
}
for _ in $(seq 1 100); do
  metric "$GW" "slipgw_ejections_total\{backend=\"$HOMEB\"\} [1-9]" && break
  sleep 0.1
done
metric "$GW" "slipgw_ejections_total\{backend=\"$HOMEB\"\} [1-9]" || {
  echo "health checker never ejected $HOMEB"; exit 1
}
metric "$GW" '^slipgw_request_seconds_count [1-9]' || {
  echo "gateway latency histogram has no _count in /metrics"; exit 1
}
echo "retry, ejection and latency histogram visible in gateway /metrics"

# --- drain: administratively move a key range away and back -------------
HOME_BARE=${HOME1#http://}
curl -fsS -X POST "$GW/admin/backends/$HOME_BARE/drain" | grep -q '"draining":true' || {
  echo "drain request failed"; exit 1
}
curl -fsS -D "$TMP/h6" -X POST -d "$REQ" "$GW/v1/runs" >/dev/null
HOME6=$(hdr x-slipd-backend "$TMP/h6")
[ -n "$HOME6" ] && [ "$HOME6" != "$HOME1" ] || {
  echo "drained backend $HOME1 still receives new keys"; exit 1
}
curl -fsS -X POST "$GW/admin/backends/$HOME_BARE/undrain" | grep -q '"draining":false' || {
  echo "undrain request failed"; exit 1
}
BODY7=$(curl -fsS -D "$TMP/h7" -X POST -d "$REQ" "$GW/v1/runs")
HOME7=$(hdr x-slipd-backend "$TMP/h7")
[ "$HOME7" = "$HOME1" ] || { echo "undrain did not restore the key range: $HOME7"; exit 1; }
echo "$BODY7" | grep -q '"cached":true' || { echo "post-undrain POST not cached: $BODY7"; exit 1; }
echo "drain/undrain confirmed: key range moved away and back, cache intact"

# --- clean shutdown -----------------------------------------------------
kill -TERM "$GWPID"; wait "$GWPID"
for port in "${B_PORTS[@]}"; do
  [ "$port" = "$PORTB" ] && continue # already killed
  kill -TERM "${BPID[$port]}"; wait "${BPID[$port]}"
done
echo "cluster smoke test passed"
