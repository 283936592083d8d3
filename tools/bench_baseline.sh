#!/usr/bin/env bash
# Runs the checker/sweep perf benches and writes one merged JSON snapshot
# — the tracked bench baseline.  Intended use:
#
#   cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
#   cmake --build build-bench -j
#   tools/bench_baseline.sh build-bench
#
# Both arguments are optional (default: build/ and a per-machine-class
# name).  When OUT is omitted, the snapshot is blessed for THIS machine
# class: it is written as BENCH_<class>.json, where <class> is
# bench_diff.machine_class() over the snapshot's own machine metadata
# (e.g. BENCH_linux-x86_64-c8-1a2b3c4d.json).  bench_diff.py --strict
# picks exactly that file when its named baseline was blessed on a
# different class, so each class only hard-gates against its own
# blessing.  Pass OUT explicitly (e.g. BENCH_checker.json) to keep a
# fixed name.
# Each bench runs with --benchmark_format=json; the per-bench documents
# are merged under their bench name, plus a metadata header.  Compare two
# snapshots with e.g.:
#
#   python3 - old.json new.json <<'EOF'
#   import json, sys
#   old, new = (json.load(open(p)) for p in sys.argv[1:3])
#   for name in old["benches"]:
#       o = {b["name"]: b["real_time"] for b in old["benches"][name]["benchmarks"]}
#       n = {b["name"]: b["real_time"] for b in new["benches"][name]["benchmarks"]}
#       for k in sorted(o.keys() & n.keys()):
#           print(f"{k}: {o[k]:.0f} -> {n[k]:.0f} ns ({o[k]/max(n[k],1e-9):.2f}x)")
#   EOF
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-}"  # empty: derive BENCH_<class>.json from machine metadata
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# perf_wsl includes BM_WslAlg2Tree and BM_WslAlg2Witness: the WSL tree
# search and the witness-first check on the same Algorithm 2 histories
# (p3/w2, p4/w4, p5/w8).  perf_sweep includes BM_ModeledScenario/{lin,wsl}/
# {3,4}: modeled-register scenarios under the random adversary, whose cost
# is mostly the register models' solver-window probes.
BENCHES=(perf_wsl perf_sweep perf_checker perf_term perf_explore perf_stream
         perf_obs)

if [[ ! -d "${BUILD_DIR}" ]]; then
  echo "bench_baseline: build dir '${BUILD_DIR}' not found" >&2
  exit 2
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

ran=()
for bench in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/bench/bench_${bench}"
  if [[ ! -x "${bin}" ]]; then
    # Google Benchmark not installed: CMake skipped these targets.
    echo "bench_baseline: skipping ${bench} (missing ${bin})" >&2
    continue
  fi
  echo "bench_baseline: running ${bench}..." >&2
  "${bin}" --benchmark_format=json \
           --benchmark_out="${tmpdir}/${bench}.json" \
           --benchmark_out_format=json > /dev/null
  ran+=("${bench}")
done

if [[ "${#ran[@]}" -eq 0 ]]; then
  echo "bench_baseline: no benches available; nothing written" >&2
  exit 1
fi

python3 - "${OUT}" "${tmpdir}" "${BUILD_DIR}" "${SCRIPT_DIR}" \
    "${ran[@]}" <<'EOF'
import json, os, platform, subprocess, sys

out, tmpdir, build_dir, script_dir = sys.argv[1:5]
benches = sys.argv[5:]
sys.path.insert(0, script_dir)
from bench_diff import machine_class  # single source of class naming

def run(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=False).stdout.strip()
    except OSError:
        return ""

commit = run(["git", "rev-parse", "--short", "HEAD"])

# Machine-class metadata: bench timings are only comparable within one
# class, so snapshots carry enough to tell classes apart.  The compiler
# is read from the build's CMake cache (falling back to `c++`), since a
# compiler change moves timings as much as a hardware change.
compiler_path = "c++"
try:
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler_path = line.split("=", 1)[1].strip()
                break
except OSError:
    pass
compiler = run([compiler_path, "--version"]).splitlines()
machine = {
    "os": platform.system(),
    "arch": platform.machine(),
    "cpus": os.cpu_count() or 0,
    "compiler": compiler[0] if compiler else "unknown",
}

cls = machine_class(machine)
if not out:
    out = f"BENCH_{cls}.json"
doc = {"commit": commit, "machine": machine, "machine_class": cls,
       "benches": {}}
for name in benches:
    with open(f"{tmpdir}/{name}.json") as f:
        doc["benches"][name] = json.load(f)
with open(out, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"bench_baseline: wrote {out} ({len(benches)} benches, "
      f"class {cls})")
EOF
