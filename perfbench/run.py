#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The simulator and the benchmark program (mot3d_perfbench) are compiled from
source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr.  Its stdout is passed through unchanged, so the last
stdout line is the result JSON.  The exit code is the program's:
0 all outputs correct, 1 a run failed or its modeled output mismatched,
2 a usage or build error.

    python3 perfbench/run.py --pin 0-20,42

re-pins the modeled-output digests (perfbench/digests/<workload>.tsv) for
the listed seeds; do it only after a deliberate model change.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["fig6_fabrics", "scale_sharing", "mot_states", "sweep_service"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds mot3d_perfbench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env) != 0:
            print("error: benchmark build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out / "mot3d_perfbench"


def source_rev():
    """git HEAD when the checkout has one, plus a digest of the sources."""
    h = hashlib.sha256()
    for sub in ("src", "perfbench/src"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    rev = "tree:" + h.hexdigest()[:16]
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        rev = "git:" + ref[:12] + " " + rev
    return rev


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pin(binary, seeds):
    for name in WORKLOADS:
        lines = ["# seed\tcell\tsha256(run_metrics_json)\tcycles\tinstructions"]
        for seed in seeds:
            res = subprocess.run([str(binary), "--workload", name, "--seed", str(seed),
                                  "--pin"], stdout=subprocess.PIPE, text=True, check=True)
            lines.extend(res.stdout.splitlines())
        (BENCH_DIR / "digests" / (name + ".tsv")).write_text("\n".join(lines) + "\n")
        print(f"pinned {name}: {len(lines) - 1} cells", file=sys.stderr)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--pin", metavar="SEEDS", help="re-pin digests, e.g. 0-20,42")
    args = ap.parse_args()
    if not args.pin and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.pin:
        return pin(binary, parse_seeds(args.pin))

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(build_dir() / "out"),
           "--digests", str(BENCH_DIR / "digests"),
           "--source-rev", source_rev()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
