#!/usr/bin/env bash
# Start-up soak: rounds of a two-process run whose sixteen client sites
# each export a name and import two the moment they start, so their
# name-service traffic races the handshake between the processes.
#
#   scripts/startup_soak.sh [--rounds N] [--hb-ms MS] [--wall SECS] [--ditico PATH]
#
# Node 0 (`ditico serve`) hosts the name service and a server; node 1
# (`ditico net`) hosts clients c0..c15. Client c exports `k<c>`, kicks
# its neighbour's, and calls the server. Every round must print each
# client's two lines and end on the termination verdict in both
# processes: a `-- …` summary line without a `(limit hit)` tail. A frame
# stranded during the handshake shows up as a round that runs to --wall.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rounds=20
hb_ms=25
wall=30
ditico="$root/target/release/ditico"
while [ $# -gt 0 ]; do
    case "$1" in
        --rounds) rounds="$2"; shift 2 ;;
        --hb-ms) hb_ms="$2"; shift 2 ;;
        --wall) wall="$2"; shift 2 ;;
        --ditico) ditico="$2"; shift 2 ;;
        *) echo "startup_soak.sh: unknown argument \`$1\`" >&2; exit 2 ;;
    esac
done
[ -x "$ditico" ] || { echo "startup_soak.sh: no ditico at $ditico (cargo build --release)" >&2; exit 2; }

clients=16
work="$(mktemp -d)"
server_pid=""
cleanup() {
    [ -z "$server_pid" ] || kill "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

{
    echo "topology nodes=2 link=ideal"
    echo "site server server.dity node=0"
    for c in $(seq 0 $((clients - 1))); do echo "site c$c c$c.dity node=1"; done
} > "$work/cluster.net"
echo 'export def Adder(x, r) = r![x + 40] in 0' > "$work/server.dity"
expected=()
for c in $(seq 0 $((clients - 1))); do
    n=$(( (c + 1) % clients ))
    cat > "$work/c$c.dity" <<EOF
export new k$c in ((k$c?() = println("kicked"))
  | import k$n from c$n in k$n![]
  | import Adder from server in new r (Adder[$c, r] | r?(y) = println("sum", y)))
EOF
    expected+=("[c$c] kicked" "[c$c] sum $((c + 40))")
done

# Both processes ended on the verdict: the summary line has no tail.
on_the_verdict() {
    grep -qE '^-- .* virtual [0-9]+ µs$' "$1"
}

for round in $(seq 1 "$rounds"); do
    "$ditico" serve "$work/cluster.net" --node 0 --listen 127.0.0.1:0 \
        --hb-ms "$hb_ms" --wall "$wall" > /dev/null 2> "$work/server.err" &
    server_pid=$!
    addr=""
    for _ in $(seq 100); do
        addr="$(sed -n 's/^listening on \([^,]*\),.*/\1/p' "$work/server.err" | head -n 1)"
        [ -n "$addr" ] && break
        sleep 0.05
    done
    [ -n "$addr" ] || { echo "round $round: server never listened" >&2; cat "$work/server.err" >&2; exit 1; }
    client_ok=1
    "$ditico" net "$work/cluster.net" --node 1 --peers "$addr" \
        --hb-ms "$hb_ms" --wall "$wall" > "$work/client.out" 2> "$work/client.err" || client_ok=0
    server_ok=1
    wait "$server_pid" || server_ok=0
    server_pid=""
    for line in "${expected[@]}"; do
        grep -qxF "$line" "$work/client.out" || { client_ok=0; echo "round $round: missing \`$line\`" >&2; }
    done
    on_the_verdict "$work/client.err" || client_ok=0
    on_the_verdict "$work/server.err" || server_ok=0
    if [ "$client_ok$server_ok" != 11 ]; then
        echo "round $round: did not end on the verdict" >&2
        echo "--- client" >&2; cat "$work/client.err" >&2
        echo "--- server" >&2; cat "$work/server.err" >&2
        exit 1
    fi
done
echo "ok: $rounds rounds of $clients clients, each ended on the verdict"
