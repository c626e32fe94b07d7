#!/usr/bin/env bash
# CI smoke test for the serving daemon: generate a small multi-site corpus,
# learn wrappers into a store (one site deliberately left out), boot
# wrapserved, hit /healthz and /v1/extract, drive the asynchronous
# maintenance plane (submit a learn job over HTTP for the left-out site,
# poll it to done, extract with the promoted wrapper), send a burst of
# extracts with repairs alongside and check the daemon's own gate ledger
# against what the clients saw, and verify a clean SIGTERM drain with a
# job still queued on the maintenance plane. Then reboot the same store
# as a 4-shard fleet (-shards 4) and check the sharded plane end to end:
# extract routes to the owning shard, a learn submitted over HTTP lands
# on the new site's owning shard (job-id prefix matches the shard stamp
# /v1/sites reports after promotion), the same burst reaches more than
# one shard by the fleet's own /metrics, and SIGTERM drains the whole
# fleet cleanly.
#
# After the in-process phases: the offline audit verbs (-audit-verify /
# -audit-export and their documented exit codes: 0 intact, 4 tampered,
# 1 unreadable). The multi-process fleet (-role shard processes behind a
# -role front, one of them killed) is not re-done here in bash: the
# soak-smoke job's `go run ./cmd/soak -shards 2 -multiproc` boots the
# real binaries and asserts it with named invariants.
#
#   SMOKE_PORT  listen port (default 8931; later phases use port+1, +2)
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
SERVED_PID=""
FLEET_PID=""
cleanup() {
  if [ -n "$SERVED_PID" ]; then kill "$SERVED_PID" 2>/dev/null || true; fi
  if [ -n "$FLEET_PID" ]; then kill "$FLEET_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK" ./cmd/sitegen ./cmd/wrapinduce ./cmd/wrapserved

# A 4-site corpus; each site's gold list doubles as a clean dictionary.
# Learn the first two sites ahead of time; the third stays out of the
# store so the async /v1/learn path has a genuinely new site to learn,
# and the fourth is reserved for the fleet's learn-over-HTTP check.
"$WORK/sitegen" -dataset dealers -sites 4 -out "$WORK/corpus" > /dev/null
site=""
newsite=""
newdir=""
fleetsite=""
fleetdir=""
n=0
for dir in "$WORK"/corpus/DEALERS/*/; do
  name="$(basename "$dir")"
  cut -f2 "$dir/name.gold.txt" | sort -u >> "$WORK/dict-all.txt"
  n=$((n + 1))
  if [ "$n" -eq 3 ]; then
    newsite="$name"; newdir="$dir"
    continue
  fi
  if [ "$n" -eq 4 ]; then
    fleetsite="$name"; fleetdir="$dir"
    continue
  fi
  site="$name"
  "$WORK/wrapinduce" -store "$WORK/wrappers.json" -site "$name" \
    -dict <(cut -f2 "$dir/name.gold.txt" | sort -u) "$dir"/page-*.html > /dev/null
done
sort -u "$WORK/dict-all.txt" -o "$WORK/dict-all.txt"

# burst ADDR TAG MIN_BUSY: send 300 two-page extracts, cycled over every
# served site's pages, from one curl that keeps up to 32 requests open at
# once (more than the gate's 2 slots and 4 queue places, so it can turn
# some away), and submit a 6-page repair every second meanwhile. The
# verdict comes from the daemon's own gate ledger, read before and after:
# every extract answered 200 or 429 (429 is backpressure, not failure) and
# every repair 202, 429 or 503; gate.admitted grew by the 200s and
# gate.rejected by the 429s, exactly; nothing is left in flight; and at
# least MIN_BUSY shards admitted part of the burst, and some extracts were
# turned away (else the rejected half of the check compared 0 with 0).
burst() {
  local addr="$1" dir="$WORK/burst-$2" min_busy="$3"
  mkdir -p "$dir"
  curl -fsS "http://$addr/v1/sites" > "$dir/sites.json"
  python3 - "$dir" "$WORK/corpus/DEALERS" "$addr" <<'PY'
import glob, json, sys
out, corpus, addr = sys.argv[1], sys.argv[2], sys.argv[3]
sites = sorted(s["site"] for s in json.load(open(out + "/sites.json")) if s["active_version"] > 0)
reqs = []
for i, site in enumerate(sites):
    pages = [open(p).read() for p in sorted(glob.glob("%s/%s/page-*.html" % (corpus, site)))]
    for j in range(0, len(pages) - 1, 2):
        f = "%s/extract-%s-%03d.json" % (out, site, j)
        json.dump({"site": site, "pages": [{"id": str(j + k), "html": pages[j + k]} for k in (0, 1)]}, open(f, "w"))
        reqs.append(f)
    json.dump({"site": site, "pages": pages[:6]}, open("%s/repair-%d.json" % (out, i), "w"))
# One curl config: a transfer per request, each with its own body and
# write-out, separated by "next" (a trailing one would be a transfer with
# no URL).
transfer = 'url = "http://%s/v1/extract"\ndata-binary = "@%s"\noutput = "/dev/null"\nwrite-out = "%%{http_code}\\n"\n'
open(out + "/requests", "w").write("next\n".join(transfer % (addr, reqs[n % len(reqs)]) for n in range(300)))
PY
  curl -fsS "http://$addr/metrics" > "$dir/before.json"
  : > "$dir/repair-codes"
  (
    while [ ! -e "$dir/stop" ]; do
      for f in "$dir"/repair-*.json; do
        [ -e "$dir/stop" ] && break
        curl -s -o /dev/null -w '%{http_code}\n' -X POST --data-binary @"$f" \
          "http://$addr/v1/repair" >> "$dir/repair-codes"
        sleep 1
      done
    done
  ) &
  local repairs=$!
  curl --no-progress-meter --parallel --parallel-immediate --parallel-max 32 -K "$dir/requests" \
    > "$dir/codes" || true
  touch "$dir/stop"
  wait "$repairs"
  python3 - "$dir" "$addr" "$min_busy" <<'PY'
import collections, json, sys, time, urllib.request
out, addr, min_busy = sys.argv[1], sys.argv[2], int(sys.argv[3])
codes = collections.Counter(open(out + "/codes").read().split())
repairs = collections.Counter(open(out + "/repair-codes").read().split())
assert sum(codes.values()) == 300, codes
assert set(codes) <= {"200", "429"}, "extracts answered %s, want only 200 and 429" % dict(codes)
assert set(repairs) <= {"202", "429", "503"}, "repairs answered %s" % dict(repairs)
before = json.load(open(out + "/before.json"))
# A handler releases its gate slot just after its response is sent, so
# give the last one a moment before in_flight must read 0.
for _ in range(50):
    after = json.load(urllib.request.urlopen("http://%s/metrics" % addr))
    if after["gate"]["in_flight"] == 0:
        break
    time.sleep(0.1)
gb, ga = before["gate"], after["gate"]
admitted, rejected = ga["admitted"] - gb["admitted"], ga["rejected"] - gb["rejected"]
assert admitted == codes["200"], "gate admitted %d, clients saw %d 200s" % (admitted, codes["200"])
assert rejected == codes["429"], "gate rejected %d, clients saw %d 429s" % (rejected, codes["429"])
# 32 open requests against 6 places at the gate: if none was turned away,
# the rejected half of the ledger check above compared 0 with 0.
assert codes["429"] > 0, "no extract was turned away with 429; the burst never filled the gate"
assert ga["in_flight"] == 0, ga
was = {r["shard"]: r["gate"]["admitted"] for r in before["per_shard"]}
busy = sorted(r["shard"] for r in after["per_shard"] if r["gate"]["admitted"] > was.get(r["shard"], 0))
assert len(busy) >= min_busy, "burst admitted on shards %s, want at least %d" % (busy, min_busy)
print("burst: %d extracts (%d ok, %d rejected) match the gate ledger; shards %s admitted; repairs %s"
      % (sum(codes.values()), codes["200"], codes["429"], busy, dict(repairs)))
PY
}

ADDR="127.0.0.1:${SMOKE_PORT:-8931}"
"$WORK/wrapserved" -store "$WORK/wrappers.json" -addr "$ADDR" \
  -max-inflight 2 -queue 4 -dict "$WORK/dict-all.txt" \
  -learn-workers 1 -job-queue 8 -learn-corpus-root "$WORK/corpus" &> "$WORK/served.log" &
SERVED_PID=$!

healthy=""
for _ in $(seq 1 50); do
  if curl -fsS "http://$ADDR/healthz" > /dev/null 2>&1; then healthy=yes; break; fi
  sleep 0.2
done
if [ -z "$healthy" ]; then
  echo "smoke-serve: wrapserved never became healthy" >&2
  cat "$WORK/served.log" >&2
  exit 1
fi
echo "healthz: $(curl -fsS "http://$ADDR/healthz")"

# One explicit extraction over the wire must yield records.
page="$WORK/corpus/DEALERS/$site/page-000.html"
python3 - "$site" "$page" > "$WORK/req.json" <<'PY'
import json, sys
print(json.dumps({"site": sys.argv[1],
                  "page": {"id": "smoke", "html": open(sys.argv[2]).read()}}))
PY
curl -fsS -X POST --data-binary @"$WORK/req.json" "http://$ADDR/v1/extract" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); r=d["results"][0]["records"]; assert r, d; print("extract: %d records from v%d" % (len(r), d["version"]))'

# --- Asynchronous maintenance plane ---
# corpus_dir outside -learn-corpus-root must be rejected outright.
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d "{\"site\":\"evil\",\"corpus_dir\":\"/etc\"}" "http://$ADDR/v1/learn")"
if [ "$code" != "403" ]; then
  echo "smoke-serve: corpus_dir escape answered $code, want 403" >&2
  exit 1
fi
echo "corpus_dir confinement: 403 outside root"

# Submit a learn job for the never-learned site by server-side corpus
# path (under the configured root): 202 + job id immediately.
JOB_ID="$(curl -fsS -X POST -d "{\"site\":\"$newsite\",\"corpus_dir\":\"$newdir\"}" \
  "http://$ADDR/v1/learn" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["state"] in ("queued","running"), d; print(d["job_id"])')"
echo "learn job accepted: $JOB_ID for $newsite"

# Poll the job to done.
state=""
for _ in $(seq 1 100); do
  state="$(curl -fsS "http://$ADDR/v1/jobs/$JOB_ID" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
  case "$state" in
    done) break ;;
    failed|canceled)
      echo "smoke-serve: learn job ended $state" >&2
      curl -fsS "http://$ADDR/v1/jobs/$JOB_ID" >&2 || true
      exit 1 ;;
  esac
  sleep 0.2
done
if [ "$state" != "done" ]; then
  echo "smoke-serve: learn job stuck in state $state" >&2
  exit 1
fi
curl -fsS "http://$ADDR/v1/jobs/$JOB_ID" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); r=d["result"]; assert r["promoted"], d; print("learn job done: %s promoted v%d in %dms" % (d["site"], r["serving_version"], d["run_ms"]))'

# The freshly learned site must now extract over the wire.
page="$newdir/page-000.html"
python3 - "$newsite" "$page" > "$WORK/req2.json" <<'PY'
import json, sys
print(json.dumps({"site": sys.argv[1],
                  "page": {"id": "smoke-learned", "html": open(sys.argv[2]).read()}}))
PY
curl -fsS -X POST --data-binary @"$WORK/req2.json" "http://$ADDR/v1/extract" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); r=d["results"][0]["records"]; assert r, d; print("extract from learned site: %d records from v%d" % (len(r), d["version"]))'

# Mixed-site load through the deliberately tight gate, with async
# repair jobs submitted alongside (the mixed maintenance scenario).
burst "$ADDR" single 1

# --- Malformed-body chaos storm ---
# Every hostile body must die at the front door with a 4xx: never a
# connection reset (000), never a 5xx, and the daemon must stay healthy
# and keep a parseable /metrics afterwards.
malformed=(
  ''
  '{'
  '{"site":"x"'
  '{"site":42}'
  '{"site":"x","timeout_ms":"fast"}'
  '{"site":"x","pages":{"html":"h"}}'
  '{"site":"x"} trailing'
  '{"num":01,"site":"x"}'
  '["not an object"]'
  'null null'
  '{"site":"bad\escape"}'
  "$(printf '{"site":"\x01\xff"}')"
)
for body in "${malformed[@]}"; do
  code="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    --data-binary "$body" "http://$ADDR/v1/extract")"
  case "$code" in
    4??) ;;
    *)
      echo "smoke-serve: malformed body $(printf '%q' "$body") answered $code, want 4xx" >&2
      exit 1 ;;
  esac
done
curl -fsS "http://$ADDR/healthz" > /dev/null
curl -fsS "http://$ADDR/metrics" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["gate"]["in_flight"] == 0, d'
echo "smoke-serve: malformed-body storm all 4xx, daemon healthy"

# Clean drain with a queued job: stack two repair submissions (one runs,
# one queues behind the single learn worker), then SIGTERM. The daemon
# must finish both — a job it answered 202 for is not dropped, queued or
# running — within -drain-timeout, and exit 0.
pages_json="$(python3 - "$newdir" <<'PY'
import glob, json, sys
pages = [open(p).read() for p in sorted(glob.glob(sys.argv[1] + "/page-*.html"))[:6]]
print(json.dumps(pages))
PY
)"
for i in 1 2; do
  printf '{"site":"%s","pages":%s}' "$newsite" "$pages_json" > "$WORK/repair.json"
  curl -fsS -X POST --data-binary @"$WORK/repair.json" "http://$ADDR/v1/repair" \
    | python3 -c 'import json,sys; d=json.load(sys.stdin); print("repair job %s: %s" % (d["job_id"], d["state"]))'
done
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""
grep -q "drained cleanly" "$WORK/served.log" || {
  echo "smoke-serve: no clean-drain log line" >&2; cat "$WORK/served.log" >&2; exit 1;
}
echo "smoke-serve: single-server OK (async learn + mixed load + clean drain with queued job)"

# --- Sharded fleet (-shards 4) over the same store ---
# The single-server phase persisted its learned site, so the fleet boots
# serving 3 sites partitioned across 4 shards from one registry file.
FLEET_ADDR="127.0.0.1:$((${SMOKE_PORT:-8931} + 1))"
"$WORK/wrapserved" -store "$WORK/wrappers.json" -addr "$FLEET_ADDR" -shards 4 \
  -max-inflight 2 -queue 4 -dict "$WORK/dict-all.txt" \
  -learn-workers 1 -job-queue 8 -learn-corpus-root "$WORK/corpus" &> "$WORK/fleet.log" &
FLEET_PID=$!

healthy=""
for _ in $(seq 1 50); do
  if curl -fsS "http://$FLEET_ADDR/healthz" > /dev/null 2>&1; then healthy=yes; break; fi
  sleep 0.2
done
if [ -z "$healthy" ]; then
  echo "smoke-serve: fleet never became healthy" >&2
  cat "$WORK/fleet.log" >&2
  exit 1
fi
curl -fsS "http://$FLEET_ADDR/healthz" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["shards"] == 4, d; print("fleet healthz: %d shards, %d sites" % (d["shards"], d["sites"]))'

# Extraction through the fleet front end must route to the owning shard
# and still yield records.
curl -fsS -X POST --data-binary @"$WORK/req.json" "http://$FLEET_ADDR/v1/extract" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); r=d["results"][0]["records"]; assert r, d; print("fleet extract: %d records from v%d" % (len(r), d["version"]))'

# Learn the reserved 4th site over HTTP. The fleet routes the job to the
# site's owning shard; the job id carries that shard's s<k>- prefix.
FLEET_JOB="$(curl -fsS -X POST -d "{\"site\":\"$fleetsite\",\"corpus_dir\":\"$fleetdir\"}" \
  "http://$FLEET_ADDR/v1/learn" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["state"] in ("queued","running"), d; print(d["job_id"])')"
job_shard="${FLEET_JOB%%-*}"; job_shard="${job_shard#s}"
echo "fleet learn job accepted: $FLEET_JOB (shard $job_shard) for $fleetsite"

state=""
for _ in $(seq 1 100); do
  state="$(curl -fsS "http://$FLEET_ADDR/v1/jobs/$FLEET_JOB" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
  case "$state" in
    done) break ;;
    failed|canceled)
      echo "smoke-serve: fleet learn job ended $state" >&2
      curl -fsS "http://$FLEET_ADDR/v1/jobs/$FLEET_JOB" >&2 || true
      exit 1 ;;
  esac
  sleep 0.2
done
if [ "$state" != "done" ]; then
  echo "smoke-serve: fleet learn job stuck in state $state" >&2
  exit 1
fi

# The promoted site's shard stamp in /v1/sites must match the shard that
# ran the learn — the job landed on the ring's owner, nowhere else.
owner="$(curl -fsS "http://$FLEET_ADDR/v1/sites" \
  | python3 -c "import json,sys; sites=json.load(sys.stdin); print([s['shard'] for s in sites if s['site'] == '$fleetsite'][0])")"
if [ "$owner" != "$job_shard" ]; then
  echo "smoke-serve: learn ran on shard $job_shard but ring owner is $owner" >&2
  exit 1
fi
echo "fleet learn landed on owning shard $owner"

# The freshly learned site extracts through the fleet.
page="$fleetdir/page-000.html"
python3 - "$fleetsite" "$page" > "$WORK/req3.json" <<'PY'
import json, sys
print(json.dumps({"site": sys.argv[1],
                  "page": {"id": "smoke-fleet", "html": open(sys.argv[2]).read()}}))
PY
curl -fsS -X POST --data-binary @"$WORK/req3.json" "http://$FLEET_ADDR/v1/extract" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); r=d["results"][0]["records"]; assert r, d; print("fleet extract from learned site: %d records from v%d" % (len(r), d["version"]))'

# The same burst against the fleet: the fleet's own per-shard gate rows
# must show it reached more than one partition.
burst "$FLEET_ADDR" fleet 2

# Clean fleet drain: SIGTERM must flip /healthz, finish in-flight work,
# quiesce every shard's job plane and exit 0.
kill -TERM "$FLEET_PID"
wait "$FLEET_PID"
FLEET_PID=""
grep -q "drained cleanly" "$WORK/fleet.log" || {
  echo "smoke-serve: no fleet clean-drain log line" >&2; cat "$WORK/fleet.log" >&2; exit 1;
}
echo "smoke-serve: fleet OK (learn on owning shard, per-shard load, clean drain)"

# --- Segmented-log backend + audit ledger ---
# Boot the same registry on the append-only log backend (auto-seeded from
# the JSON store) with the lifecycle audit ledger on. A learn for an
# already-served site appends v2 to the LOG ONLY; a reboot must replay it,
# proving durability now lives in the log, and /v1/audit must expose the
# chained learn/promote events.
LOG_ADDR="127.0.0.1:$((${SMOKE_PORT:-8931} + 2))"
boot_log_backend() {
  "$WORK/wrapserved" -store "$WORK/wrappers.json" -addr "$LOG_ADDR" \
    -store-backend log -store-log-dir "$WORK/wrappers.log" \
    -audit-log "$WORK/audit.jsonl" \
    -max-inflight 2 -queue 4 -dict "$WORK/dict-all.txt" \
    -learn-workers 1 -job-queue 8 -learn-corpus-root "$WORK/corpus" &>> "$WORK/logback.log" &
  SERVED_PID=$!
  healthy=""
  for _ in $(seq 1 50); do
    if curl -fsS "http://$LOG_ADDR/healthz" > /dev/null 2>&1; then healthy=yes; break; fi
    sleep 0.2
  done
  if [ -z "$healthy" ]; then
    echo "smoke-serve: log-backend wrapserved never became healthy" >&2
    cat "$WORK/logback.log" >&2
    exit 1
  fi
}
boot_log_backend

LOG_JOB="$(curl -fsS -X POST -d "{\"site\":\"$site\",\"corpus_dir\":\"$WORK/corpus/DEALERS/$site\"}" \
  "http://$LOG_ADDR/v1/learn" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["state"] in ("queued","running"), d; print(d["job_id"])')"
state=""
for _ in $(seq 1 100); do
  state="$(curl -fsS "http://$LOG_ADDR/v1/jobs/$LOG_JOB" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
  [ "$state" = "done" ] && break
  case "$state" in failed|canceled)
    echo "smoke-serve: log-backend learn job ended $state" >&2; exit 1 ;; esac
  sleep 0.2
done
if [ "$state" != "done" ]; then
  echo "smoke-serve: log-backend learn job stuck in state $state" >&2
  exit 1
fi

# Relearning an existing site stages a candidate; promote it explicitly —
# the admin promote persists through the log backend and hits the ledger.
curl -fsS -X POST -d "{\"site\":\"$site\",\"version\":2}" "http://$LOG_ADDR/v1/promote" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["serving_version"] == 2, d; print("promoted %s to v2 on the log backend" % d["site"])'

# The ledger saw the lifecycle and /metrics carries its counters.
curl -fsS "http://$LOG_ADDR/v1/audit" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["enabled"], d; ev={r["event"] for r in d["records"]}; assert "promote" in ev, ev; print("audit: %d chained events (%s)" % (d["stats"]["events"], ", ".join(sorted(ev))))'
curl -fsS "http://$LOG_ADDR/metrics" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["audit"]["events"] >= 1, d'

kill -TERM "$SERVED_PID"; wait "$SERVED_PID"; SERVED_PID=""

# Reboot: the learned v2 exists only in the segmented log; replay must
# serve it, and the audit chain must pick up where it left off.
boot_log_backend
curl -fsS "http://$LOG_ADDR/v1/sites" \
  | python3 -c "
import json, sys
sites = json.load(sys.stdin)
v = [s['active_version'] for s in sites if s['site'] == '$site'][0]
assert v >= 2, 'log replay lost the learned version: v%d' % v
print('log replay serves $site at v%d' % v)"
curl -fsS -X POST --data-binary @"$WORK/req.json" "http://$LOG_ADDR/v1/extract" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); r=d["results"][0]["records"]; assert r, d; print("log-backend extract after reboot: %d records from v%d" % (len(r), d["version"]))'
curl -fsS "http://$LOG_ADDR/v1/audit" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["enabled"] and d["stats"]["last_seq"] >= 1, d'
kill -TERM "$SERVED_PID"; wait "$SERVED_PID"; SERVED_PID=""
grep -q "drained cleanly" "$WORK/logback.log" || {
  echo "smoke-serve: no log-backend clean-drain log line" >&2; cat "$WORK/logback.log" >&2; exit 1;
}

# --- Offline audit verbs + exit codes ---
# -audit-verify must pass the ledger the log-backend phase wrote (exit 0),
# -audit-export must dump its Merkle checkpoint anchors (exit 0), a
# flipped byte must be caught as tampering (exit 4, not a generic 1),
# and a missing file is an ordinary error (exit 1).
"$WORK/wrapserved" -audit-verify "$WORK/audit.jsonl"
"$WORK/wrapserved" -audit-export "$WORK/audit.jsonl" > "$WORK/checkpoints.jsonl"
python3 - "$WORK/checkpoints.jsonl" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
for cp in lines:
    assert cp["seq"] > 0 and len(cp["root"]) == 64, cp
print("audit export: %d checkpoint anchor(s)" % len(lines))
PY
cp "$WORK/audit.jsonl" "$WORK/audit-tampered.jsonl"
python3 - "$WORK/audit-tampered.jsonl" <<'PY'
import sys
p = sys.argv[1]
b = bytearray(open(p, "rb").read())
b[len(b) // 2] ^= 0x01
open(p, "wb").write(bytes(b))
PY
set +e
"$WORK/wrapserved" -audit-verify "$WORK/audit-tampered.jsonl"; code=$?
set -e
if [ "$code" != "4" ]; then
  echo "smoke-serve: tampered ledger exited $code, want 4" >&2
  exit 1
fi
set +e
"$WORK/wrapserved" -audit-verify "$WORK/no-such-ledger.jsonl"; code=$?
set -e
if [ "$code" != "1" ]; then
  echo "smoke-serve: missing ledger exited $code, want 1" >&2
  exit 1
fi
echo "smoke-serve: audit verbs OK (verify=0, export=0, tampered=4, missing=1)"

echo "smoke-serve: OK (single server + 4-shard fleet + log backend with audit + audit verbs)"
