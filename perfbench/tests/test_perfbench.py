#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root (builds the benchmark first, ~1-2 minutes):

    python3 -m unittest discover -s perfbench/tests -v

Checks:
  * every metric name matches [A-Za-z0-9_.-]+, BENCHMARK.json lists exactly
    the metrics mot3d_perfbench defines, and a one-pass run of each workload
    emits every metric of its mode with its unit;
  * the grid and the request streams are deterministic for a given seed;
  * a doctored pinned digest raises error_rate (non-zero exit, failed > 0);
  * setup_s + run_s never exceeds the wall time of its pass.
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run as perfbench_run  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
PASS_RE = re.compile(r"^# pass: wall_s=(\S+) setup_s=(\S+) run_s=(\S+)")


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = perfbench_run.build()
        if cls.binary is None:
            raise RuntimeError("benchmark build failed")
        cls.scratch = perfbench_run.build_dir() / "selftest"
        shutil.rmtree(cls.scratch, ignore_errors=True)
        cls.scratch.mkdir(parents=True)
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.runs = {}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def run_bench(self, *args, digests=None, check=True):
        cmd = [str(self.binary), *args, "--passes", "1", "--seconds", "1",
               "--out-dir", str(self.scratch / "out"),
               "--digests", str(digests or BENCH_DIR / "digests")]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
        if check:
            self.assertEqual(res.returncode, 0, res.stdout)
        return res.returncode, res.stdout.splitlines()

    def cached_run(self, workload, trace):
        key = (workload, trace)
        if key not in self.runs:
            self.runs[key] = self.run_bench("--workload", workload, "--seed", "0",
                                            "--trace", trace)[1]
        return self.runs[key]

    def test_metric_names_and_units(self):
        defs = json.loads(subprocess.check_output([str(self.binary), "--list-metrics"]))
        for kind in ("end_to_end", "per_layer"):
            listed = [(m["name"], m["unit"]) for m in self.spec[kind]]
            defined = [(m["name"], m["unit"]) for m in defs[kind]]
            self.assertEqual(listed, defined, kind)
            for name, unit in defined:
                self.assertTrue(NAME_RE.fullmatch(name), name)
                self.assertTrue(unit, name)
        for w in self.spec["workloads"]:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                result = json.loads(self.cached_run(w["name"], trace)[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(
                    {n: m["unit"] for n, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in self.spec[kind]},
                    (w["name"], trace))

    def test_grid_and_streams_deterministic(self):
        for w in self.spec["workloads"]:
            dump = lambda seed: subprocess.check_output(  # noqa: E731
                [str(self.binary), "--workload", w["name"], "--seed", seed, "--dump"])
            self.assertEqual(dump("7"), dump("7"), w["name"])
            self.assertNotEqual(dump("7"), dump("8"), w["name"])

    def test_doctored_digest_raises_error_rate(self):
        seed = 0
        doctored = self.scratch / "digests"
        shutil.copytree(BENCH_DIR / "digests", doctored)
        path = doctored / "sweep_service.tsv"
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines)
                   if not l.startswith("#") and l.split("\t")[0] == str(seed))
        fields = lines[idx].split("\t")
        fields[2] = ("0" if fields[2][0] != "0" else "1") + fields[2][1:]
        lines[idx] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")

        code, out = self.run_bench("--workload", "sweep_service", "--seed", str(seed),
                                   "--trace", "0", digests=doctored, check=False)
        self.assertEqual(code, 1)
        result = json.loads(out[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        rate = next(l for l in out if l.startswith("# error_rate = "))
        self.assertGreater(float(rate.split()[3]), 0.0)

        # The same run against the committed pins is clean.
        clean = json.loads(self.run_bench("--workload", "sweep_service", "--seed",
                                          str(seed), "--trace", "0")[1][-1])
        self.assertEqual(clean["failed"], 0)

    def test_setup_plus_run_within_pass_wall(self):
        for w in self.spec["workloads"]:
            passes = [PASS_RE.match(l) for l in self.cached_run(w["name"], "0")]
            passes = [m for m in passes if m]
            self.assertTrue(passes, w["name"])
            for m in passes:
                wall, setup, run = (float(g) for g in m.groups())
                self.assertLessEqual(setup + run, wall, w["name"])


if __name__ == "__main__":
    unittest.main()
