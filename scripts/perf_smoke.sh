#!/usr/bin/env bash
# Engine hot-path regression smoke: runs the engine/fiber/channel micro
# benches plus the SIMD data-plane benches (fingerprint, image conversion,
# datatype pack) in a Release tree and compares host time per benchmark against the
# committed baseline (scripts/perf_baseline.json). A >20% slowdown prints a
# WARNING per offender and a nonzero-looking summary line, but exits 0 —
# wall-clock on shared machines is noisy, so the warning is the signal and
# a hard gate would flake.
#
#   scripts/perf_smoke.sh            # compare against the committed baseline
#   scripts/perf_smoke.sh --update   # rewrite the baseline from this host
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-bench
FILTER='BM_Engine|BM_Fiber|BM_Channel|BM_Vm|BM_Fingerprint|BM_ImageConvert|BM_DatatypePack'
BASELINE=scripts/perf_baseline.json

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target micro_benchmarks >/dev/null

out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$BUILD"/bench/micro_benchmarks --benchmark_filter="$FILTER" \
  --benchmark_min_time=0.2 --benchmark_format=json >"$out"

if [[ "${1:-}" == "--update" ]]; then
  python3 - "$out" "$BASELINE" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))
base = {b["name"]: b["real_time"] for b in run["benchmarks"]}
with open(sys.argv[2], "w") as f:
    json.dump({"schema": "starfish-perf-baseline-v1",
               "note": "host ns/iteration; regenerate: scripts/perf_smoke.sh --update",
               "real_time_ns": base}, f, indent=1)
    f.write("\n")
print(f"wrote {sys.argv[2]} ({len(base)} benchmarks)")
EOF
  exit 0
fi

python3 - "$out" "$BASELINE" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))
base = baseline["real_time_ns"]
worst = 0.0
for b in run["benchmarks"]:
    name, t = b["name"], b["real_time"]
    if name not in base:
        print(f"  (new)    {name}: {t:.0f} ns — not in baseline; run --update")
        continue
    ratio = t / base[name]
    worst = max(worst, ratio)
    tag = "WARNING" if ratio > 1.20 else "ok"
    print(f"  {tag:7s}  {name}: {t:.0f} ns vs baseline {base[name]:.0f} ns ({ratio:.2f}x)")
if worst > 1.20:
    print(f"perf smoke: WARNING — worst regression {worst:.2f}x exceeds the 1.20x budget")
else:
    print(f"perf smoke: ok (worst ratio {worst:.2f}x)")
EOF
