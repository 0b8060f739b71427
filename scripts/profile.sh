#!/usr/bin/env bash
# Where the CPU of each `ditico` process goes: a sampling profile.
#
#   scripts/profile.sh [--top N] [--match NAME] [--minus <twin command…> --] [--] <command…>
#
# Builds a SIGPROF sampler with `cc` into a temporary directory and runs
# <command…> with it preloaded (LD_PRELOAD). In every process whose
# executable is named NAME (default `ditico`; any other process the
# command starts, cargo included, runs unsampled) a CPU-time interval
# timer takes one stack per tick of that process's CPU time; the process
# writes its samples when it exits. Processes are grouped by their
# subcommand (`serve`, `net`, `check`, …), and for each group the script
# prints the top N symbols (default 20) by self samples (the sampled
# instruction is in the symbol) and by inclusive samples (the symbol is
# anywhere on the stack), as shares of the group's samples. Symbols are
# resolved with `nm` (the executable's own table; for a shared library
# without one, `nm -D`, which knows only its exports, so such a name
# reads `libc.so.6: near <export>`); a sample in the kernel counts
# against the syscall wrapper that entered it.
#
# With `--minus <twin command…> --` the twin runs first under the same
# sampler, and each symbol's figure becomes samples per process of the
# command minus samples per process of the twin: run a workload and its
# zero-op variant to leave what the ops cost. The shares are then of the
# group's difference.
#
# Informational only: it gates nothing. Linux with glibc; needs cc, nm
# and awk.
#
#   scripts/profile.sh -- bash benchmark/run.sh --workload fetch_catalog --seed 1 --seconds 8
set -euo pipefail

top=20
match=ditico
twin=()
while [ $# -gt 0 ]; do
    case "$1" in
        --top) top="$2"; shift 2 ;;
        --match) match="$2"; shift 2 ;;
        --minus)
            shift
            while [ $# -gt 0 ] && [ "$1" != -- ]; do twin+=("$1"); shift; done
            [ $# -gt 0 ] || { echo "profile.sh: --minus needs a closing --" >&2; exit 2; }
            shift ;;
        --) shift; break ;;
        *) break ;;
    esac
done
[ $# -gt 0 ] || { echo "usage: scripts/profile.sh [--top N] [--match NAME] [--minus <twin command…> --] [--] <command…>" >&2; exit 2; }

tmp="$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <unistd.h>

#define DEPTH 32          /* frames kept per sample */
#define CAP (1 << 16)     /* samples kept per process */
#define SKIP 2            /* the handler and the signal trampoline */

static void **samples;
static long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig; (void)info; (void)ctx;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= CAP) return;
    void *frames[DEPTH + SKIP];
    int n = backtrace(frames, DEPTH + SKIP);
    void **slot = samples + i * DEPTH;
    for (int k = SKIP; k < n; k++) slot[k - SKIP] = frames[k];
    if (n - SKIP < DEPTH) slot[n > SKIP ? n - SKIP : 0] = 0;
}

__attribute__((constructor)) static void start(void) {
    const char *dir = getenv("PROFILE_DIR"), *want = getenv("PROFILE_MATCH");
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (!dir || !want || len <= 0) return;
    exe[len] = 0;
    const char *base = strrchr(exe, '/');
    if (strcmp(base ? base + 1 : exe, want) != 0) return;
    samples = mmap(0, sizeof(void *) * DEPTH * CAP, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (samples == MAP_FAILED) { samples = 0; return; }
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder before any signal needs it */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_RESTART | SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, 0);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, 0);
}

/* One frame as `object@address`, the address in the object as `nm`
   prints it: 16 hex digits, so that addresses compare as strings. */
static void put_frame(FILE *f, void *pc) {
    Dl_info info;
    if (dladdr(pc, &info) && info.dli_fname && *info.dli_fname) {
        fprintf(f, " %s@%016lx", info.dli_fname,
                (unsigned long)((char *)pc - (char *)info.dli_fbase));
    } else {
        fprintf(f, " ?@%016lx", (unsigned long)pc);
    }
}

__attribute__((destructor)) static void stop(void) {
    if (!samples) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    char path[4096], cmd[4096] = "";
    snprintf(path, sizeof path, "%s/%d.prof", getenv("PROFILE_DIR"), (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f) return;
    FILE *c = fopen("/proc/self/cmdline", "r");
    size_t n = c ? fread(cmd, 1, sizeof cmd - 1, c) : 0;
    if (c) fclose(c);
    const char *sub = memchr(cmd, 0, n) ? cmd + strlen(cmd) + 1 : "";
    fprintf(f, "group %s\n", sub < cmd + n && *sub ? sub : "-");
    long kept = taken < CAP ? taken : CAP;
    for (long i = 0; i < kept; i++) {
        fputc('s', f);
        void **slot = samples + i * DEPTH;
        /* A return address is one past its call: step back into it. */
        for (int k = 0; k < DEPTH && slot[k]; k++)
            put_frame(f, k ? (char *)slot[k] - 1 : (char *)slot[k]);
        fputc('\n', f);
    }
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$tmp/sampler.so" "$tmp/sampler.c" -ldl

# Run "$@" with the sampler, its processes' samples into directory $1.
sample() {
    local dir="$tmp/$1"
    shift
    mkdir -p "$dir"
    PROFILE_DIR="$dir" PROFILE_MATCH="$match" LD_PRELOAD="$tmp/sampler.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@"
}

if [ ${#twin[@]} -gt 0 ]; then
    sample twin "${twin[@]}"
fi
sample real "$@"

# Every distinct `object@address` frame, resolved against `nm` once.
shopt -s nullglob
cat "$tmp"/real/*.prof "$tmp"/twin/*.prof /dev/null |
    awk '$1 == "s" { for (i = 2; i <= NF; i++) if ($i ~ /@/ && !seen[$i]++) print $i }' |
    sort > "$tmp/frames"
: > "$tmp/names"
for obj in $(sed 's/@[0-9a-f]*$//' "$tmp/frames" | sort -u); do
    # Without a symbol table only exports are known: a name is then the
    # export nearest below, shown as such.
    near=""
    syms="$(nm -n -C --defined-only "$obj" 2>/dev/null || true)"
    if [ -z "$syms" ]; then
        syms="$(nm -n -C -D --defined-only "$obj" 2>/dev/null || true)"
        near="${obj##*/}: near "
    fi
    printf '%s\n' "$syms" |
        awk -v obj="$obj" -v near="$near" -v frames="$tmp/frames" '
            function lookup(a,    lo, hi, mid) {
                lo = 1; hi = n
                if (n == 0 || a < addr[1]) return ""
                while (lo < hi) {
                    mid = int((lo + hi + 1) / 2)
                    if (addr[mid] <= a) lo = mid; else hi = mid - 1
                }
                return near name[lo]
            }
            # Addresses compare as "x"-prefixed strings of 16 hex digits.
            $2 ~ /^[tTwWiI]$/ {
                n++; addr[n] = "x" $1
                $1 = ""; $2 = ""; sub(/^  /, ""); sub(/::h[0-9a-f]{16}$/, ""); sub(/@.*$/, "")
                name[n] = $0
            }
            END {
                while ((getline line < frames) > 0) {
                    at = index(line, "@")
                    if (substr(line, 1, at - 1) != obj) continue
                    s = lookup("x" substr(line, at + 1))
                    base = obj; sub(/.*\//, "", base)
                    print line "\t" (s == "" ? "[" base "]" : s)
                }
            }' >> "$tmp/names"
done

# Per group: self and inclusive samples per symbol, per process.
tally() {
    [ -d "$tmp/$1" ] || return 0
    for f in "$tmp/$1"/*.prof; do
        awk -F'\t' -v side="$1" '
            FNR == NR { names[$1] = $2; next }
            FNR == 1 { split($0, h, " "); group = h[2]; print side "\tproc\t" group; next }
            {
                n = split($0, fr, " ")
                delete on
                for (i = 2; i <= n; i++) {
                    s = fr[i] in names ? names[fr[i]] : fr[i]
                    if (i == 2) print side "\tself\t" group "\t" s
                    if (!on[s]++) print side "\tincl\t" group "\t" s
                }
                print side "\tall\t" group
            }' "$tmp/names" "$f"
    done
}
{ tally twin; tally real; } |
    awk -F'\t' -v top="$top" -v minus=${#twin[@]} '
        $2 == "proc" { procs[$1, $3]++; groups[$3] = 1; next }
        $2 == "all" { all[$1, $3]++; next }
        { count[$1, $2, $3, $4]++; syms[$2, $3, $4] = 1 }
        function per(side, g, c) { return procs[side, g] ? c / procs[side, g] : 0 }
        function value(kind, g, s) {
            v = per("real", g, count["real", kind, g, s])
            return minus ? v - per("twin", g, count["twin", kind, g, s]) : v
        }
        END {
            fflush()
            for (g in groups) {
                if (!procs["real", g]) continue
                total = per("real", g, all["real", g]) - (minus ? per("twin", g, all["twin", g]) : 0)
                printf "== %s: %d process(es), %.1f samples each%s\n", g, procs["real", g],
                    per("real", g, all["real", g]),
                    minus ? sprintf(" (twin: %d, %.1f each; difference %.1f)", procs["twin", g],
                        per("twin", g, all["twin", g]), total) : ""
                for (k = 1; k <= 2; k++) {
                    kind = k == 1 ? "self" : "incl"
                    printf "  %s\n", k == 1 ? "self" : "inclusive"
                    fflush()
                    cmd = "sort -t \"\t\" -k1,1gr | head -" top
                    for (key in syms) {
                        split(key, p, SUBSEP)
                        if (p[1] != kind || p[2] != g) continue
                        v = value(kind, g, p[3])
                        printf "%.2f\t%6.1f%%\t%s\n", v, total ? 100 * v / total : 0, p[3] | cmd
                    }
                    close(cmd)
                }
            }
        }' | awk -F'\t' 'NF == 3 { printf "    %8.1f %7s  %s\n", $1, $2, $3; next } { print }'
