#!/usr/bin/env bash
# Chaos smoke for `randsync serve`: two concurrent clients, a SIGTERM
# drain cutting a job mid-run, and a crash-safe restart that must
# reproduce the exact verdicts the direct CLI prints.
#
#   scripts/serve_smoke.sh [BINARY [WORKDIR]]
#
# BINARY defaults to the dev-profile build product; WORKDIR (default
# ./serve-smoke) collects server logs, metrics dumps, the spool and
# every captured verdict, so CI can upload it wholesale on failure.
# Server PIDs come from $! only — never from pgrep, which would match
# unrelated processes on a shared runner.
set -u

BIN="${1:-_build/default/bin/randsync_cli.exe}"
WORK="${2:-serve-smoke}"

rm -rf "$WORK"
mkdir -p "$WORK"
SOCK="$WORK/serve.sock"
SPOOL="$WORK/spool"
SERVER=""

fail() {
  echo "serve-smoke: FAIL: $*" >&2
  if [ -n "$SERVER" ]; then kill -9 "$SERVER" 2>/dev/null; fi
  exit 1
}

submit() { "$BIN" submit --socket "$SOCK" "$@"; }

start_server() { # start_server <tag>
  "$BIN" serve --socket "$SOCK" --spool "$SPOOL" \
    --metrics "$WORK/server-$1.metrics.json" \
    >"$WORK/server-$1.log" 2>&1 &
  SERVER=$!
  for _ in $(seq 1 100); do
    if submit --ping >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "server ($1) did not come up on $SOCK"
}

# --- 1. direct CLI runs: the ground truth every served verdict must
#        match byte-for-byte (shared renderer, pinned seeds) ------------
"$BIN" mc counter-3 --inputs 0,1 --depth 12 \
  >"$WORK/mc.direct" 2>"$WORK/mc.direct.err"
MC_CODE=$?
[ "$MC_CODE" -eq 0 ] || fail "direct mc counter-3 exited $MC_CODE, expected 0"

"$BIN" fuzz flawed --runs 40 --seed 3 \
  >"$WORK/fuzz.direct" 2>"$WORK/fuzz.direct.err"
FUZZ_CODE=$?
[ "$FUZZ_CODE" -eq 2 ] || fail "direct fuzz flawed exited $FUZZ_CODE, expected 2 (violation)"

"$BIN" mc rw-3n --inputs 0,1 --depth 22 --max-states 25000000 \
  >"$WORK/long.direct" 2>"$WORK/long.direct.err"
LONG_CODE=$?

# --- 2. serve the same jobs from two concurrent clients ----------------
start_server 1

submit --job '{"kind":"mc","protocol":"counter-3","inputs":[0,1],"depth":12}' \
  >"$WORK/mc.served" 2>"$WORK/mc.served.err" &
C1=$!
submit --job '{"kind":"fuzz","scenario":"flawed","runs":40,"seed":3}' \
  >"$WORK/fuzz.served" 2>"$WORK/fuzz.served.err" &
C2=$!
wait "$C1"
S1=$?
wait "$C2"
S2=$?
[ "$S1" -eq "$MC_CODE" ] || fail "served mc exited $S1, direct CLI exited $MC_CODE"
[ "$S2" -eq "$FUZZ_CODE" ] || fail "served fuzz exited $S2, direct CLI exited $FUZZ_CODE"
diff "$WORK/mc.direct" "$WORK/mc.served" \
  || fail "served mc verdict differs from the direct CLI"
diff "$WORK/fuzz.direct" "$WORK/fuzz.served" \
  || fail "served fuzz verdict differs from the direct CLI"

# --- 3. a detached slow job, then SIGTERM mid-run ----------------------
submit --detach \
  --job '{"kind":"mc","protocol":"rw-3n","inputs":[0,1],"depth":22,"max_states":25000000}' \
  >"$WORK/detach.out" 2>"$WORK/detach.err" \
  || fail "detached submit failed: $(cat "$WORK/detach.err")"
LONG_ID=$(sed -n 's/^id=\([0-9][0-9]*\)$/\1/p' "$WORK/detach.out")
[ -n "$LONG_ID" ] || fail "detached submit did not print id=N: $(cat "$WORK/detach.out")"

sleep 0.7 # well inside the ~1.7s run: the cut lands mid-search, past checkpoints
submit --status >"$WORK/status.before-kill" 2>&1 || true
kill -TERM "$SERVER"
wait "$SERVER"
DRAIN=$?
SERVER=""
[ "$DRAIN" -eq 0 ] || fail "SIGTERM drain exited $DRAIN, expected 0"
grep -q '^drained$' "$WORK/server-1.log" \
  || fail "drained server log missing its 'drained' line"
[ -s "$WORK/server-1.metrics.json" ] \
  || fail "server did not dump --metrics on drain"
grep -q '"drained":"true"' "$WORK/server-1.metrics.json" \
  || fail "drain metrics missing drained=true"
# the cut landed mid-search: a cursor on disk and no verdict yet
[ -s "$SPOOL/job-$LONG_ID.ckpt" ] && [ ! -e "$SPOOL/job-$LONG_ID.verdict" ] \
  || fail "job $LONG_ID was not interrupted mid-search (no checkpoint, or already decided)"

# --- 4. restart on the same spool: the cut job must finish with a
#        verdict byte-identical to the uninterrupted direct run ---------
start_server 2
submit --wait "$LONG_ID" >"$WORK/long.served" 2>"$WORK/long.served.err"
SL=$?
[ "$SL" -eq "$LONG_CODE" ] || fail "resumed job exited $SL, direct CLI exited $LONG_CODE"
diff "$WORK/long.direct" "$WORK/long.served" \
  || fail "resumed verdict differs from the uninterrupted direct run"

submit --drain >/dev/null 2>&1 || fail "drain request failed"
wait "$SERVER"
DRAIN=$?
SERVER=""
[ "$DRAIN" -eq 0 ] || fail "final drain exited $DRAIN, expected 0"

echo "serve-smoke: OK (drain, resume and served verdicts all byte-identical)"
