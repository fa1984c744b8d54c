#!/usr/bin/env bash
# Flat per-function host profile of one perfbench workload, without perf.
#
#   scripts/hotspots.sh <train|paper-grid|serve> [seed] [seconds] [top]
#
# Builds perfbench as the benchmark builds it (release, its own workspace),
# builds a small SIGPROF sampler with `cc`, runs the workload untraced with
# the sampler preloaded (LD_PRELOAD), and symbolizes the sampled program
# counters with `addr2line`. Each sample is charged to the function whose
# machine code it hit, so a function that shows up here is a real call that
# was not inlined. Defaults: seed 1, 10 s, top 30 functions.
#
# Rows are keyed by the mangled symbol, so each monomorphized instantiation
# of a generic function (e.g. `kernels::fma` once per float format) gets a
# row of its own; the label is the demangled path followed by the first
# seven hex digits of the symbol's hash, which tells instantiations apart.
#
# Only symbol tables are read (the release profile carries no debug info),
# so code inlined into a caller is charged to that caller, and samples in a
# stripped shared library (libc's memcpy family) carry the nearest name
# that library exports.
#
# The perfbench sources are only read. Build outputs go to
# target/hotspots/; the raw samples stay there for further slicing.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
    sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
workload=$1
seed=${2:-1}
seconds=${3:-10}
top=${4:-30}

out=target/hotspots
mkdir -p "$out"

echo "==> building perfbench (release)" >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin=$(pwd)/perfbench/target/release/perfbench

echo "==> building the SIGPROF sampler" >&2
cat > "$out/sampler.c" <<'EOF'
/* SIGPROF sampler, loaded with LD_PRELOAD. Every millisecond of process
 * CPU time the interrupted program counter is appended to a fixed buffer;
 * at exit each one is written as "<mapped file>\t<address in that file>",
 * the address relative to the file's load base so addr2line can read it. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES];
static volatile int n_samples;

static void on_prof(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    ucontext_t *uc = uctx;
#if defined(__x86_64__)
    unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    unsigned long pc = uc->uc_mcontext.pc;
#else
#error "unsupported architecture"
#endif
    int i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        pcs[i] = pc;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

struct map {
    unsigned long start, end, base;
    char path[256];
};

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *out_path = getenv("SAMPLER_OUT");
    if (!out_path)
        return;
    static struct map maps[4096];
    int n_maps = 0;
    FILE *f = fopen("/proc/self/maps", "r");
    char line[512];
    while (f && n_maps < 4096 && fgets(line, sizeof line, f)) {
        struct map *m = &maps[n_maps];
        unsigned long offset;
        m->path[0] = 0;
        if (sscanf(line, "%lx-%lx %*s %lx %*s %*s %255s", &m->start, &m->end, &offset, m->path) < 3)
            continue;
        /* A file's load base is the start of its offset-0 mapping, the
         * first of its mappings in address order. */
        m->base = m->start - offset;
        for (int j = 0; j < n_maps; j++)
            if (strcmp(maps[j].path, m->path) == 0 && maps[j].base < m->base)
                m->base = maps[j].base;
        n_maps++;
    }
    if (f)
        fclose(f);
    FILE *out = fopen(out_path, "w");
    if (!out)
        return;
    int n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        const struct map *hit = NULL;
        for (int j = 0; j < n_maps && !hit; j++)
            if (pcs[i] >= maps[j].start && pcs[i] < maps[j].end)
                hit = &maps[j];
        if (hit && hit->path[0] == '/')
            fprintf(out, "%s\t%lx\n", hit->path, pcs[i] - hit->base);
        else
            fprintf(out, "[anon]\t%lx\n", pcs[i]);
    }
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$out/sampler.so" "$out/sampler.c"

echo "==> sampling $workload (seed $seed, $seconds s)" >&2
samples=$out/$workload-seed$seed.samples
rm -f "$samples"
SAMPLER_OUT=$(pwd)/$samples LD_PRELOAD=$(pwd)/$out/sampler.so \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >&2

# Symbolize each distinct (file, address) once, per file, then add up
# samples per function.
symbolized=$out/$workload-seed$seed.symbolized
: > "$symbolized"
cut -f1 "$samples" | sort -u | while read -r file; do
    awk -F'\t' -v f="$file" '$1 == f { print $2 }' "$samples" | sort | uniq -c > "$out/addrs"
    if [[ -r "$file" ]]; then
        awk '{ print "0x" $2 }' "$out/addrs" | addr2line -f -e "$file" |
            awk 'NR % 2 == 1' > "$out/funcs"
    else
        awk '{ print "??" }' "$out/addrs" > "$out/funcs"
    fi
    paste -d'\t' <(awk '{ print $1 }' "$out/addrs") "$out/funcs" |
        awk -F'\t' -v m="${file##*/}" '{
            fn = ($2 == "??") ? m ":??" : $2
            sub(/\.llvm\.[0-9]+$/, "", fn) # a local promoted across codegen units
            print $1 "\t" fn
        }' >> "$symbolized"
done
rm -f "$out/addrs" "$out/funcs"

total=$(awk -F'\t' '{ s += $1 } END { print s + 0 }' "$symbolized")
echo
echo "flat profile: $workload seed $seed, $seconds s, $total samples (1 ms of CPU time each)"
printf '%8s %7s  %s\n' samples share function
awk -F'\t' '{ c[$2] += $1 } END { for (f in c) print c[f] "\t" f }' "$symbolized" |
    sort -t$'\t' -k1,1nr | awk -v n="$top" 'NR <= n' > "$out/top"
# Label each row with the demangled path (any `::h<hash>` tail that
# c++filt keeps removed) and the short hash of the Rust legacy mangling,
# `17h<16 hex digits>E`; other symbols get no suffix.
cut -f2 "$out/top" | c++filt | sed -E 's/::h[0-9a-f]{16}$//' > "$out/names"
cut -f2 "$out/top" | sed -E 's/.*17h([0-9a-f]{7})[0-9a-f]{9}E.*/ [\1]/; t; s/.*//' > "$out/hashes"
paste -d'\t' <(cut -f1 "$out/top") "$out/names" "$out/hashes" |
    awk -F'\t' -v t="$total" '{ printf "%8d %6.1f%%  %s%s\n", $1, 100 * $1 / t, $2, $3 }'
rm -f "$out/top" "$out/names" "$out/hashes"
