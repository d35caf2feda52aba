#!/usr/bin/env bash
# Fleet-vs-whole equivalence, end to end through the CLI (DESIGN.md §14):
#
#   analyze --format agg                      (whole-run archive)
#   fleet --workers N                         (planned, forked, merged)
#
# The merged fleet archive must be byte-identical to the whole-run archive
# for every worker count — including with a worker deliberately killed
# mid-fleet (reassignment) and on a deliberately corrupted capture (the
# plan-sweep diagnostics injection) — and the fleet must never write a
# shard pcap to disk. Also pins `tdat shard --plan` JSON output, the
# `analyze --fleet N` sugar, and that `--output` replaces the archive
# atomically (a failed write leaves the previous file intact).
#
# Usage: fleet_equivalence_test.sh <path-to-tdat>
set -u

TDAT="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

"$TDAT" simulate baseline "$TMP/base.pcap" --sessions 4 >/dev/null \
  || fail "simulate exited non-zero"

# --- whole-run archive ------------------------------------------------------
"$TDAT" analyze "$TMP/base.pcap" --format agg --quiet-stats \
  >"$TMP/whole.tdagg" || fail "analyze --format agg exited non-zero"
[ -s "$TMP/whole.tdagg" ] || fail "whole-run archive is empty"

# --- fleet at several widths: byte-identical, no shard pcaps ----------------
for n in 1 2 8; do
  (cd "$TMP" && "$TDAT" fleet base.pcap --workers "$n" --quiet-stats \
    >"fleet$n.tdagg") || fail "fleet --workers $n exited non-zero"
  cmp -s "$TMP/fleet$n.tdagg" "$TMP/whole.tdagg" \
    || fail "fleet --workers $n differs from the whole-run archive"
done
leftover="$(find "$TMP" -name '*.pcap' ! -name base.pcap | wc -l)"
[ "$leftover" -eq 0 ] || fail "fleet wrote $leftover shard pcap file(s)"

# --- analyze --fleet sugar --------------------------------------------------
"$TDAT" analyze "$TMP/base.pcap" --format agg --fleet 2 --quiet-stats \
  >"$TMP/sugar.tdagg" || fail "analyze --fleet 2 exited non-zero"
cmp -s "$TMP/sugar.tdagg" "$TMP/whole.tdagg" \
  || fail "analyze --fleet differs from the whole-run archive"
# --fleet without the agg format is a usage error.
"$TDAT" analyze "$TMP/base.pcap" --fleet 2 --quiet-stats >/dev/null 2>&1
[ $? -eq 2 ] || fail "analyze --fleet without --format agg should exit 2"

# --- killed worker: shard reassigned, bytes unchanged -----------------------
TDAT_FLEET_KILL_WORKER=0 "$TDAT" fleet "$TMP/base.pcap" --workers 2 \
  --stats >"$TMP/killed.tdagg" 2>"$TMP/killed.stats" \
  || fail "fleet with a killed worker exited non-zero"
cmp -s "$TMP/killed.tdagg" "$TMP/whole.tdagg" \
  || fail "fleet with a killed worker differs from the whole-run archive"
grep -q "reassignments" "$TMP/killed.stats" \
  || fail "fleet --stats lacks reassignment accounting"

# --- shard --plan: machine-readable plan, no files written ------------------
"$TDAT" shard "$TMP/base.pcap" --plan --shards 3 >"$TMP/plan.json" \
  || fail "shard --plan exited non-zero"
grep -q '"shards"' "$TMP/plan.json" || fail "plan JSON lacks shards"
grep -q '"runs"' "$TMP/plan.json" || fail "plan JSON lacks runs"
leftover="$(find "$TMP" -name '*.pcap' ! -name base.pcap | wc -l)"
[ "$leftover" -eq 0 ] || fail "shard --plan wrote shard pcap file(s)"

# --- corrupted capture: plan-sweep diagnostics keep equivalence -------------
cp "$TMP/base.pcap" "$TMP/corrupt.pcap"
filesize="$(wc -c <"$TMP/corrupt.pcap")"
# Flip a byte two-thirds in — enough to damage a record body or header.
printf '\xff' | dd of="$TMP/corrupt.pcap" bs=1 seek="$((filesize * 2 / 3))" \
  conv=notrunc 2>/dev/null || fail "cannot corrupt capture"
"$TDAT" analyze "$TMP/corrupt.pcap" --format agg --quiet-stats \
  >"$TMP/cwhole.tdagg"
whole_rc=$?
"$TDAT" fleet "$TMP/corrupt.pcap" --workers 2 --quiet-stats \
  >"$TMP/cfleet.tdagg"
fleet_rc=$?
[ "$whole_rc" -eq "$fleet_rc" ] \
  || fail "corrupt capture: whole rc=$whole_rc but fleet rc=$fleet_rc"
cmp -s "$TMP/cfleet.tdagg" "$TMP/cwhole.tdagg" \
  || fail "corrupt capture: fleet archive differs from the whole-run archive"

# --- --output: atomic replace, never a torn archive -------------------------
"$TDAT" fleet "$TMP/base.pcap" --workers 2 --quiet-stats \
  --output "$TMP/out.tdagg" >/dev/null || fail "fleet --output exited non-zero"
cmp -s "$TMP/out.tdagg" "$TMP/whole.tdagg" \
  || fail "fleet --output differs from the whole-run archive"
# A failed write (injected ENOSPC-style failure of the first atomic write)
# must exit 1 and leave the previous archive at the path byte-identical.
cp "$TMP/cwhole.tdagg" "$TMP/prev.tdagg"
TDAT_ATOMIC_WRITE_FAIL=1 "$TDAT" fleet "$TMP/base.pcap" --workers 2 \
  --quiet-stats --output "$TMP/prev.tdagg" >/dev/null 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "fleet --output with a failed write exited $rc, want 1"
cmp -s "$TMP/prev.tdagg" "$TMP/cwhole.tdagg" \
  || fail "a failed fleet --output write changed the previous archive"

# --- remote worker reconnect: listener appears late, bytes unchanged --------
# The worker dials before any coordinator is listening (exactly what a killed
# and restarted listener looks like from the worker's side) and must retry
# with backoff until the listener appears, then serve the job to completion
# with zero lost shards and exit 0.
PORT=$((20000 + RANDOM % 20000))
TDAT_FLEET_RECONNECT_BASE_MS=20 TDAT_FLEET_RECONNECT_MAX_MS=200 \
  TDAT_FLEET_RECONNECT_ATTEMPTS=100 \
  "$TDAT" fleet --connect "127.0.0.1:$PORT" >/dev/null 2>&1 &
WORKER_PID=$!
sleep 0.4  # several dial attempts fail before the listener exists
kill -0 "$WORKER_PID" 2>/dev/null \
  || fail "worker gave up while the listener was down"
"$TDAT" fleet "$TMP/base.pcap" --listen "127.0.0.1:$PORT" --quiet-stats \
  >"$TMP/remote.tdagg" || fail "fleet --listen exited non-zero"
cmp -s "$TMP/remote.tdagg" "$TMP/whole.tdagg" \
  || fail "remote-worker fleet differs from the whole-run archive"
wait "$WORKER_PID"
worker_rc=$?
[ "$worker_rc" -eq 0 ] \
  || fail "reconnecting worker exited $worker_rc (want 0 after Shutdown)"

# A worker whose coordinator never comes back must give up after the
# configured attempts with exit 3 — not hang, not crash.
TDAT_FLEET_RECONNECT_BASE_MS=10 TDAT_FLEET_RECONNECT_MAX_MS=20 \
  TDAT_FLEET_RECONNECT_ATTEMPTS=3 \
  "$TDAT" fleet --connect "127.0.0.1:$PORT" >/dev/null 2>&1
[ $? -eq 3 ] || fail "worker should exit 3 after exhausting reconnects"

# --- CLI contract edges -----------------------------------------------------
"$TDAT" fleet "$TMP/base.pcap" --workers 0 >/dev/null 2>&1
[ $? -eq 2 ] || fail "fleet --workers 0 should exit 2"
"$TDAT" fleet /nonexistent.pcap --workers 2 >/dev/null 2>&1
[ $? -eq 3 ] || fail "fleet on an unreadable capture should exit 3"

echo "PASS"
exit 0
