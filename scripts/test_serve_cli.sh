#!/usr/bin/env bash
# End-to-end smoke for the dpmd serving daemon, run as a ctest entry
# (cli_dpmd_serve) and by scripts/verify.sh --serve-smoke.  Everything
# here is observable only at the process boundary — exit codes, stdout
# banners, response bytes on a real socket — so it lives in a script:
#
#   1. dpmd binds an ephemeral port and prints the listening banner;
#   2. replaying the canned example transcript answers every request
#      with exit 0 and no error/failed statuses;
#   3. a second replay is served from the response cache: byte-identical
#      non-stats responses and an exact-hit ratio > 0.5 for the pass;
#   4. SIGTERM shuts the server down cleanly (exit 0, "shutdown clean",
#      cache flushed to disk); a second daemon started on the same
#      --cache-dir answers a third replay entirely from the loaded cache:
#      every solve and evaluate line an exact hit, byte-identical to the
#      first pass;
#   5. an unresolvable --bind is a usage error (exit 2);
#   6. overload: a daemon with tiny caps rejects an oversized line with
#      a typed bad-request, sheds a connection flood past
#      --max-connections with typed overloaded lines while staying
#      responsive, and still shuts down cleanly on SIGTERM;
#   7. (when a bench_serve_load path is given) the open-loop driver at
#      0.5x/1x/2x saturation against a --max-inflight 2 daemon: typed
#      request sheds, bounded admitted p99, stats round-trips under
#      load — the driver exits nonzero if any of that fails.
#
#   scripts/test_serve_cli.sh <path-to-dpmd> [<path-to-bench_serve_load>]
set -euo pipefail

dpmd="${1:?usage: test_serve_cli.sh <path-to-dpmd> [<path-to-bench_serve_load>]}"
dpmd="$(readlink -f "${dpmd}")"
loadgen="${2:-}"
[[ -n "${loadgen}" ]] && loadgen="$(readlink -f "${loadgen}")"

workdir="$(mktemp -d)"
server_pid=""
server2_pid=""
cleanup() {
  [[ -n "${server_pid}" ]] && kill -KILL "${server_pid}" 2>/dev/null || true
  [[ -n "${server2_pid}" ]] && kill -KILL "${server2_pid}" 2>/dev/null || true
  rm -rf "${workdir}"
}
trap cleanup EXIT
cd "${workdir}"

fail() {
  echo "test_serve_cli: FAIL — $*" >&2
  [[ -f server.out ]] && sed 's/^/  server: /' server.out >&2
  exit 1
}

# --- 1. start the server on an ephemeral port -------------------------
"${dpmd}" --print-example-transcript > transcript.txt ||
  fail "--print-example-transcript failed"
requests="$(wc -l < transcript.txt)"
[[ "${requests}" -ge 10 ]] ||
  fail "example transcript has ${requests} lines, want >= 10"

"${dpmd}" --port 0 --cache-dir cachedir > server.out 2>&1 &
server_pid=$!

port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^dpmd: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
            server.out)"
  [[ -n "${port}" ]] && break
  kill -0 "${server_pid}" 2>/dev/null || fail "server exited before binding"
  sleep 0.05
done
[[ -n "${port}" ]] || fail "no listening banner within 5s"

# --- 2. first pass: every request answered, none rejected -------------
"${dpmd}" --connect "127.0.0.1:${port}" --transcript transcript.txt \
  > pass1.out || fail "first transcript replay exited nonzero"
answers="$(wc -l < pass1.out)"
[[ "${answers}" -eq "${requests}" ]] ||
  fail "first pass answered ${answers}/${requests} requests"
grep -q '"status":"error"' pass1.out &&
  fail "first pass rejected a canned request: $(grep '"status":"error"' pass1.out | head -1)"
grep -q '"status":"failed"' pass1.out &&
  fail "first pass failed a solve: $(grep '"status":"failed"' pass1.out | head -1)"

# --- 3. second pass: cache replay, exact-hit ratio > 0.5 --------------
"${dpmd}" --connect "127.0.0.1:${port}" --transcript transcript.txt \
  > pass2.out || fail "second transcript replay exited nonzero"

# Non-stats responses must replay byte-identically (the stats line is
# the one legitimately request-count-dependent response).
grep -v '"counters"' pass1.out > pass1.cmp
grep -v '"counters"' pass2.out > pass2.cmp
cmp -s pass1.cmp pass2.cmp ||
  fail "second pass responses are not byte-identical to the first"

hits1="$(grep -o '"exact_hits":[0-9]*' pass1.out | tail -1 | cut -d: -f2)"
hits2="$(grep -o '"exact_hits":[0-9]*' pass2.out | tail -1 | cut -d: -f2)"
[[ -n "${hits1}" && -n "${hits2}" ]] ||
  fail "stats responses carry no exact_hits counter"
pass_hits=$(( hits2 - hits1 ))
# The stats request itself is never cached; everything else can hit.
if (( 2 * pass_hits <= requests )); then
  fail "second-pass exact-hit ratio ${pass_hits}/${requests} is not > 0.5"
fi

# --- 4. SIGTERM: clean shutdown, cache flushed ------------------------
kill -TERM "${server_pid}"
server_exit=0
wait "${server_pid}" || server_exit=$?
server_pid=""
[[ "${server_exit}" -eq 0 ]] ||
  fail "server exited ${server_exit} on SIGTERM, want 0"
grep -q '^dpmd: shutdown clean$' server.out ||
  fail "server did not print the clean-shutdown banner"
ls cachedir/* >/dev/null 2>&1 ||
  fail "no response cache flushed to cachedir on shutdown"

# 4b. restart on the same cache dir: the on-disk cache round-trips.
"${dpmd}" --port 0 --cache-dir cachedir > server.out 2>&1 &
server_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^dpmd: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
            server.out)"
  [[ -n "${port}" ]] && break
  kill -0 "${server_pid}" 2>/dev/null ||
    fail "restarted server exited before binding"
  sleep 0.05
done
[[ -n "${port}" ]] || fail "no restarted-server banner within 5s"
"${dpmd}" --connect "127.0.0.1:${port}" --transcript transcript.txt \
  > pass3.out || fail "replay against the restarted server exited nonzero"
grep -v '"counters"' pass3.out > pass3.cmp
cmp -s pass1.cmp pass3.cmp ||
  fail "restarted-server responses are not byte-identical to the first pass"
# The transcript's one stats line is its last: the fresh daemon's
# counters cover exactly the lines before it.
stats3="$(grep '"counters"' pass3.out | tail -1)"
hits3="$(grep -o '"exact_hits":[0-9]*' <<<"${stats3}" | cut -d: -f2)"
[[ "${hits3}" -eq $(( requests - 1 )) ]] ||
  fail "restarted server: ${hits3} exact hits, want $(( requests - 1 )): ${stats3}"
for tier in near_hits cold_solves evaluations; do
  [[ "${stats3}" == *"\"${tier}\":0,"* ]] ||
    fail "restarted server computed instead of replaying (${tier}): ${stats3}"
done
kill -TERM "${server_pid}"
server_exit=0
wait "${server_pid}" || server_exit=$?
server_pid=""
[[ "${server_exit}" -eq 0 ]] ||
  fail "restarted server exited ${server_exit} on SIGTERM, want 0"

# --- 5. unresolvable --bind is a usage error (exit 2) -----------------
bind_exit=0
"${dpmd}" --bind no-such-host.invalid --port 0 > bind.out 2>&1 || bind_exit=$?
[[ "${bind_exit}" -eq 2 ]] ||
  fail "--bind no-such-host.invalid exited ${bind_exit}, want 2"
grep -q 'no-such-host.invalid' bind.out ||
  fail "--bind failure message does not name the bad address"

# --- 6. overload: bounded line, connection-flood sheds, clean stop ----
"${dpmd}" --port 0 --no-cache --max-connections 1 --max-line-bytes 512 \
  > server2.out 2>&1 &
server2_pid=$!
port2=""
for _ in $(seq 1 100); do
  port2="$(sed -n 's/^dpmd: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
             server2.out)"
  [[ -n "${port2}" ]] && break
  kill -0 "${server2_pid}" 2>/dev/null ||
    fail "overload server exited before binding"
  sleep 0.05
done
[[ -n "${port2}" ]] || fail "no overload-server banner within 5s"

# 6a. a newline-free oversized line: typed bad-request, connection drop.
exec 5<>"/dev/tcp/127.0.0.1/${port2}" ||
  fail "cannot connect for the oversized-line check"
head -c 600 /dev/zero | tr '\0' 'x' >&5
oversize=""
IFS= read -r -t 5 oversize <&5 ||
  fail "oversized line got no response before the drop"
[[ "${oversize}" == *'"code":"bad-request"'* &&
   "${oversize}" == *'line too long'* ]] ||
  fail "expected typed line-too-long rejection, got: ${oversize}"
exec 5<&- || true
exec 5>&- || true

# 6b. hold the single admitted connection, then flood past the cap:
# every extra connection must get the static typed overloaded line.
# The dropped oversized connection's worker may not be reaped yet, so
# retry until the acceptor has a free slot.
held=""
for _ in $(seq 1 50); do
  exec 3<>"/dev/tcp/127.0.0.1/${port2}" || fail "cannot open held connection"
  printf '{"id":"hold","op":"stats"}\n' >&3
  IFS= read -r -t 5 held <&3 || fail "held connection got no stats response"
  [[ "${held}" == *'"status":"ok"'* ]] && break
  exec 3<&- || true
  exec 3>&- || true
  sleep 0.1
done
[[ "${held}" == *'"status":"ok"'* ]] ||
  fail "held connection never admitted after the oversized drop: ${held}"
flood=5
for i in $(seq 1 "${flood}"); do
  exec 4<>"/dev/tcp/127.0.0.1/${port2}" ||
    fail "flood connection ${i} failed to connect"
  shed=""
  IFS= read -r -t 5 shed <&4 ||
    fail "flood connection ${i} got no shed line"
  [[ "${shed}" == *'"code":"overloaded"'* ]] ||
    fail "flood connection ${i}: expected typed overloaded, got: ${shed}"
  exec 4<&- || true
  exec 4>&- || true
done

# 6c. the daemon is still responsive and accounts for every shed (the
# held-connection retries above may have shed too, so compare deltas).
sheds_before="$(grep -o '"conn_sheds":[0-9]*' <<<"${held}" | cut -d: -f2)"
printf '{"id":"after","op":"stats"}\n' >&3
IFS= read -r -t 5 stats2 <&3 || fail "stats after flood got no response"
sheds_after="$(grep -o '"conn_sheds":[0-9]*' <<<"${stats2}" | cut -d: -f2)"
[[ -n "${sheds_before}" && -n "${sheds_after}" ]] ||
  fail "stats responses carry no conn_sheds counter: ${stats2}"
(( sheds_after - sheds_before == flood )) ||
  fail "flood of ${flood} shed $((sheds_after - sheds_before)) connections: ${stats2}"
[[ "${stats2}" == *'"rejections":1'* ]] ||
  fail "stats after flood does not count the oversized line: ${stats2}"
exec 3<&- || true
exec 3>&- || true

kill -TERM "${server2_pid}"
server2_exit=0
wait "${server2_pid}" || server2_exit=$?
server2_pid=""
[[ "${server2_exit}" -eq 0 ]] ||
  fail "overload server exited ${server2_exit} on SIGTERM, want 0"
grep -q '^dpmd: shutdown clean$' server2.out ||
  fail "overload server did not print the clean-shutdown banner"

# --- 7. open-loop load driver at 0.5x/1x/2x saturation ----------------
if [[ -n "${loadgen}" ]]; then
  "${dpmd}" --port 0 --no-cache --max-inflight 2 > server3.out 2>&1 &
  server2_pid=$!
  port3=""
  for _ in $(seq 1 100); do
    port3="$(sed -n 's/^dpmd: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
               server3.out)"
    [[ -n "${port3}" ]] && break
    kill -0 "${server2_pid}" 2>/dev/null ||
      fail "loadgen server exited before binding"
    sleep 0.05
  done
  [[ -n "${port3}" ]] || fail "no loadgen-server banner within 5s"

  "${loadgen}" --smoke --connect "127.0.0.1:${port3}" --expect-sheds \
    --duration-ms 300 > loadgen.out 2>&1 ||
    fail "bench_serve_load failed: $(tail -5 loadgen.out)"
  grep -q 'all load-level checks passed' loadgen.out ||
    fail "load driver did not report a passing verdict"

  kill -TERM "${server2_pid}"
  server3_exit=0
  wait "${server2_pid}" || server3_exit=$?
  server2_pid=""
  [[ "${server3_exit}" -eq 0 ]] ||
    fail "loadgen server exited ${server3_exit} on SIGTERM, want 0"
  grep -q '^dpmd: shutdown clean$' server3.out ||
    fail "loadgen server did not print the clean-shutdown banner"
fi

echo "test_serve_cli: OK (${requests} requests, ${pass_hits} exact hits on replay, ${flood} connection sheds)"
