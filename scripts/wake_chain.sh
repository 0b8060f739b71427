#!/usr/bin/env bash
# Context switches per remote call, per thread: the wake chain of one
# sequential RPC, read from /proc while two real processes run it.
#
#   scripts/wake_chain.sh [--calls N] [--max S] [--hb-ms MS] [--ditico PATH] [--cpu C]
#
# Generates the two-file RPC program (the benchmark's `rpc_seq` shape: one
# chain, one call in flight), runs `ditico serve` and `ditico net` pinned
# to one CPU, samples /proc/<pid>/task/*/status when the client starts and
# again at least a second later, once the chain has finished, and prints
# voluntary / involuntary switches per call for every thread. With
# `--max S` it fails when either process spends more than S switches per
# call in total. The topology has a third node with an idle site, hosted
# by a third process started only after the second sample: until its node
# reports, no termination wave can conclude, so both processes are still
# there to be sampled once the chain is done.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
calls=5000
max=""
hb_ms=500
ditico="$root/target/release/ditico"
cpu=0
while [ $# -gt 0 ]; do
    case "$1" in
        --calls) calls="$2"; shift 2 ;;
        --max) max="$2"; shift 2 ;;
        --hb-ms) hb_ms="$2"; shift 2 ;;
        --ditico) ditico="$2"; shift 2 ;;
        --cpu) cpu="$2"; shift 2 ;;
        *) echo "wake_chain.sh: unknown argument \`$1\`" >&2; exit 2 ;;
    esac
done
[ -x "$ditico" ] || { echo "wake_chain.sh: no ditico at $ditico (cargo build --release)" >&2; exit 2; }
[ -r /proc/self/task ] || { echo "wake_chain.sh: needs Linux /proc" >&2; exit 2; }

pin=()
if command -v taskset >/dev/null 2>&1; then
    pin=(taskset -c "$cpu")
else
    echo "wake_chain.sh: no taskset; running unpinned (counts will differ)" >&2
fi

work="$(mktemp -d)"
server_pid=""
client_pid=""
latch_pid=""
cleanup() {
    for p in $client_pid $server_pid $latch_pid; do kill "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

cat > "$work/cluster.net" <<EOF
topology nodes=3 link=ideal
site server server.dity node=0
site client client.dity node=1
site latch latch.dity node=2
EOF
echo 0 > "$work/latch.dity"
cat > "$work/server.dity" <<EOF
def Srv(p) = p?{ val(x, r) = r![x + 1] | Srv[p] } in export new p in Srv[p]
EOF
cat > "$work/client.dity" <<EOF
import p from server in
def Chain(k, acc) =
    if k > 0 then new a (p!val[k, a] | a?(v) = Chain[k - 1, acc + v])
    else println("chain", acc)
in Chain[$calls, 0]
EOF
expected="[client] chain $(( calls * (calls + 1) / 2 + calls ))"

# tid name voluntary involuntary, one line per thread of process $1.
snapshot() {
    local t
    for t in /proc/"$1"/task/*; do
        awk -v tid="${t##*/}" '
            /^Name:/ { name = $2 }
            /^voluntary_ctxt_switches:/ { v = $2 }
            /^nonvoluntary_ctxt_switches:/ { n = $2 }
            END { if (name != "") print tid, name, v, n }' "$t/status" 2>/dev/null || true
    done
}
# Switches of every thread of a process: whichever threads carry the
# chain (the net thread runs the slice its read readied, so the workers
# may stay still throughout), all of them are still once it is done, but
# for the heartbeat tick — allowed 4 switches per tick in a 0.25 s poll.
switches() { awk '{ s += $3 + $4 } END { print s + 0 }' "$1"; }
quiet=$(( 8 + 1000 / (hb_ms > 0 ? hb_ms : 1) ))

wall=60
"${pin[@]}" "$ditico" serve "$work/cluster.net" --node 0 --listen 127.0.0.1:0 \
    --hb-ms "$hb_ms" --wall "$wall" > "$work/server.out" 2> "$work/server.err" &
server_pid=$!
addr=""
for _ in $(seq 100); do
    addr="$(sed -n 's/^listening on \([^,]*\),.*/\1/p' "$work/server.err" | head -n 1)"
    [ -n "$addr" ] && break
    sleep 0.05
done
[ -n "$addr" ] || { echo "wake_chain.sh: server never listened" >&2; cat "$work/server.err" >&2; exit 1; }

"${pin[@]}" "$ditico" net "$work/cluster.net" --node 1 --peers "$addr" \
    --hb-ms "$hb_ms" --wall "$wall" > "$work/client.out" 2> "$work/client.err" &
client_pid=$!
snapshot "$server_pid" > "$work/server.a"
snapshot "$client_pid" > "$work/client.a"

# Second sample: a second later at the earliest, and only once the
# client's threads have stopped switching (the chain is done, and both
# processes wait for the latch's node to report).
sleep 1
prev=-1
settled=0
for _ in $(seq 40); do
    snapshot "$server_pid" > "$work/server.b"
    snapshot "$client_pid" > "$work/client.b"
    [ -s "$work/client.b" ] || break
    now="$(switches "$work/client.b")"
    if [ "$prev" -ge 0 ] && [ $(( now - prev )) -le "$quiet" ]; then
        settled=1
        break
    fi
    prev="$now"
    sleep 0.25
done
if [ "$settled" -ne 1 ]; then
    echo "wake_chain.sh: the chain did not settle within 10 s" >&2
    exit 1
fi

# The latch's node reports, and all three end on the verdict.
"${pin[@]}" "$ditico" net "$work/cluster.net" --node 2 --peers "$addr" \
    --hb-ms "$hb_ms" --wall "$wall" > /dev/null 2> "$work/latch.err" &
latch_pid=$!

wait "$client_pid" || { echo "wake_chain.sh: client failed" >&2; cat "$work/client.err" >&2; exit 1; }
client_pid=""
wait "$server_pid" || { echo "wake_chain.sh: server failed" >&2; cat "$work/server.err" >&2; exit 1; }
server_pid=""
wait "$latch_pid" || { echo "wake_chain.sh: latch failed" >&2; cat "$work/latch.err" >&2; exit 1; }
latch_pid=""
if ! grep -qxF "$expected" "$work/client.out"; then
    echo "wake_chain.sh: client printed the wrong result (want \`$expected\`)" >&2
    cat "$work/client.out" >&2
    exit 1
fi

echo "context switches per call, $calls sequential RPCs, both processes on cpu $cpu"
printf '%-8s %-16s %10s %12s\n' process thread voluntary involuntary
worst=0
for who in server client; do
    per_proc="$(awk -v who="$who" -v calls="$calls" '
        NR == FNR { v0[$1] = $3; n0[$1] = $4; next }
        {
            v = ($3 - v0[$1]) / calls; n = ($4 - n0[$1]) / calls
            printf "%-8s %-16s %10.3f %12.3f\n", who, $2, v, n
            sum += v + n
        }
        END { printf "%-8s %-16s %23.3f\n", who, "TOTAL", sum }' \
        "$work/$who.a" "$work/$who.b")"
    echo "$per_proc"
    t="$(echo "$per_proc" | awk '$2 == "TOTAL" { print $3 }')"
    worst="$(awk -v a="$worst" -v b="$t" 'BEGIN { print (b > a) ? b : a }')"
done
if [ -n "$max" ]; then
    if awk -v w="$worst" -v m="$max" 'BEGIN { exit !(w > m) }'; then
        echo "wake_chain.sh: $worst switches per call per process exceeds --max $max" >&2
        exit 1
    fi
    echo "ok: at most $worst switches per call per process (limit $max)"
fi
