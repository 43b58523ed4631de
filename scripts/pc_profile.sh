#!/usr/bin/env bash
# Statistical CPU profile of one command by program-counter sampling, with no
# instrumentation of the profiled binary (unlike gprof's -pg, which inflates
# small, frequently called functions).
#
#   usage: scripts/pc_profile.sh [--hz N] [--top N] [--out DIR] -- COMMAND [ARGS...]
#
# The script compiles a small sampler with gcc into DIR and runs COMMAND with
# it in LD_PRELOAD. The sampler arms a process-local ITIMER_PROF at N Hz of
# the process's CPU time (default 997), records the interrupted program
# counter of whichever thread the SIGPROF lands on, and at exit writes the
# samples and the process's memory map to DIR/pcs.<pid> and DIR/maps.<pid>.
# `addr2line -i` then symbolizes every sampled address of the process with
# the most samples. The report lists, as shares of all its samples:
#   outermost   the function the sampled code belongs to once inlining is
#               undone (what a non-inlined caller would be charged)
#   innermost   the innermost inlined function at the sample
#   line        the innermost source line
# Binaries need debug info (RelWithDebInfo) for names and lines; a command
# that ends in _exit or a signal leaves no samples.
#
# Example, the contended_grid workload of the benchmark harness:
#   scripts/pc_profile.sh --out /tmp/prof -- .bench_build/perfbench/qperc_perfbench \
#     --workload contended_grid --seed 61 --seconds 30 --trace 0 --jobs 4 \
#     --size full --out /tmp/prof/bench
set -euo pipefail

HZ=997
TOP=25
OUT=""
usage() {
  sed -n '5,5p' "$0" | sed 's/^# //' >&2
  exit 2
}
while [[ $# -gt 0 ]]; do
  case "$1" in
    --hz) HZ=${2:?}; shift 2 ;;
    --top) TOP=${2:?}; shift 2 ;;
    --out) OUT=${2:?}; shift 2 ;;
    --) shift; break ;;
    -h|--help) usage ;;
    *) echo "pc_profile: unknown flag $1" >&2; usage ;;
  esac
done
[[ $# -ge 1 ]] || usage
[[ "$HZ" =~ ^[1-9][0-9]*$ && "$HZ" -le 10000 ]] || { echo "pc_profile: --hz must be 1..10000" >&2; exit 2; }
[[ "$TOP" =~ ^[1-9][0-9]*$ ]] || { echo "pc_profile: --top must be a positive integer" >&2; exit 2; }
OUT=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/pc_profile.XXXXXX")}
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
rm -f "$OUT"/pcs.* "$OUT"/maps.*

cat > "$OUT/pc_sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)

static uintptr_t* samples;
static atomic_uint taken;
static atomic_uint dropped;

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
  const uintptr_t pc = 0;
#endif
  const unsigned slot = atomic_fetch_add_explicit(&taken, 1, memory_order_relaxed);
  if (slot < MAX_SAMPLES) {
    samples[slot] = pc;
  } else {
    atomic_fetch_add_explicit(&dropped, 1, memory_order_relaxed);
  }
}

static void copy_file(const char* from, const char* to) {
  FILE* in = fopen(from, "r");
  FILE* out = fopen(to, "w");
  char buffer[4096];
  size_t n;
  while (in != NULL && out != NULL && (n = fread(buffer, 1, sizeof buffer, in)) > 0) {
    fwrite(buffer, 1, n, out);
  }
  if (in != NULL) fclose(in);
  if (out != NULL) fclose(out);
}

__attribute__((constructor)) static void start(void) {
  const char* hz_text = getenv("PC_PROFILE_HZ");
  const long hz = hz_text != NULL ? atol(hz_text) : 997;
  if (getenv("PC_PROFILE_DIR") == NULL || hz <= 0) return;
  samples = mmap(NULL, MAX_SAMPLES * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (samples == MAP_FAILED) return;
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_prof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = hz >= 1000000 ? 1 : 1000000 / hz;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void finish(void) {
  const char* dir = getenv("PC_PROFILE_DIR");
  if (dir == NULL || samples == NULL || samples == MAP_FAILED) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  char path[4096];
  snprintf(path, sizeof path, "%s/maps.%d", dir, (int)getpid());
  copy_file("/proc/self/maps", path);
  snprintf(path, sizeof path, "%s/pcs.%d", dir, (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  unsigned n = atomic_load(&taken);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  fprintf(out, "# dropped %u\n", atomic_load(&dropped));
  for (unsigned i = 0; i < n; ++i) fprintf(out, "%lx\n", (unsigned long)samples[i]);
  fclose(out);
}
EOF
gcc -shared -fPIC -O2 -o "$OUT/pc_sampler.so" "$OUT/pc_sampler.c"

echo "pc_profile: ${HZ} Hz, output in $OUT" >&2
status=0
PC_PROFILE_DIR="$OUT" PC_PROFILE_HZ="$HZ" LD_PRELOAD="$OUT/pc_sampler.so${LD_PRELOAD:+:$LD_PRELOAD}" \
  "$@" || status=$?

python3 - "$OUT" "$TOP" <<'EOF'
import collections
import glob
import os
import subprocess
import sys

out, top = sys.argv[1], int(sys.argv[2])
runs = []
for path in glob.glob(os.path.join(out, "pcs.*")):
    pid = path.rsplit(".", 1)[1]
    with open(path) as f:
        pcs = [int(line, 16) for line in f if line.strip() and not line.startswith("#")]
    runs.append((len(pcs), pid, pcs))
if not runs:
    sys.exit("pc_profile: no samples written (did the command exit normally?)")
total, pid, pcs = max(runs)
if total == 0:
    sys.exit("pc_profile: the profiled process took no samples")

# Executable mappings: (start, end, file offset, path).
mappings = []
with open(os.path.join(out, f"maps.{pid}")) as f:
    for line in f:
        fields = line.split()
        if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in fields[0].split("-"))
        mappings.append((start, end, int(fields[2], 16), fields[5]))

by_module = collections.defaultdict(set)
located = {}
for pc in set(pcs):
    for start, end, offset, path in mappings:
        if start <= pc < end:
            located[pc] = (path, pc - start + offset)
            by_module[path].add(pc - start + offset)
            break

frames = {}  # (module, offset) -> [(function, file:line), ...] innermost first
for module, offsets in by_module.items():
    ordered = sorted(offsets)
    result = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", module],
                            input="\n".join(hex(o) for o in ordered) + "\n",
                            capture_output=True, text=True, check=False)
    current = None
    pending = None
    for line in result.stdout.splitlines():
        if line.startswith("0x") and pending is None:
            current = (module, int(line, 16))
            frames[current] = []
        elif pending is None:
            pending = line
        else:
            frames[current].append((pending, line.split(" (discriminator")[0]))
            pending = None

outer = collections.Counter()
inner = collections.Counter()
lines = collections.Counter()
for pc in pcs:
    key = located.get(pc)
    chain = frames.get(key) if key else None
    if not chain or chain[0][0] == "??":
        name = f"[{os.path.basename(key[0])}]" if key else "[unmapped]"
        outer[name] += 1
        inner[name] += 1
        lines[name] += 1
        continue
    outer[chain[-1][0]] += 1
    inner[chain[0][0]] += 1
    where = chain[0][1]
    parts = where.rsplit("/", 2)
    lines["/".join(parts[-2:]) if len(parts) > 1 else where] += 1

print(f"# pc_profile: pid {pid}, {total} samples")
for title, counter in (("outermost function", outer), ("innermost function", inner),
                       ("innermost line", lines)):
    print(f"\n## {title} (share of {total} samples)")
    for name, count in counter.most_common(top):
        print(f"{100.0 * count / total:6.2f}%  {count:7d}  {name[:160]}")
EOF
exit "$status"
