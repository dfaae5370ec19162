#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it checks
that:

- an untraced run prints, as its last line, exactly the keys correct,
  attempted, failed and metrics, with every end-to-end metric of
  BENCHMARK.json under its declared unit, and passes its output checks;
- a traced run does the same for every per-layer metric;
- the simulated-output fingerprint and the sim_* metrics are identical for a
  repeated seed, and the fingerprint differs for another seed (every run
  also checks its own rounds against each other, including one on 2 runner
  threads, and reports a mismatch through `correct`);
- a sabotaged run (every redirector crashed as traffic starts) fails its
  output checks: correct is false and failed is positive.

It also checks BENCHMARK.json against the limits of its format. Exits 0 when
every check passes.
"""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        check(False, f"{workload} {' '.join(extra)}: exit {out.returncode}\n{out.stderr[-2000:]}")
        return None, None
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    names = [w["name"] for w in spec["workloads"]] + \
            [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "names are well formed and used once")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "each workload has a one-line why of at most 200 characters")
    check(all(set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
              and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
              for m in spec["end_to_end"]), "end-to-end metrics are well formed")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present, in s, lower is better, with the largest bound")
    check(all(set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
              for m in spec["per_layer"]), "per-layer metrics are well formed")
    check(1 <= spec["run_seconds"] <= 60 and 2 <= len(spec["workloads"]) <= 8,
          "run_seconds and workload count are in range")


def check_result(workload, result, declared, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} {label}: result line has exactly correct, attempted, failed, metrics")
    metrics = result["metrics"]
    check(set(metrics) == set(declared),
          f"{workload} {label}: prints every declared metric and no other")
    bad = [n for n, unit in declared.items()
           if n in metrics and (metrics[n].get("unit") != unit
                                or not isinstance(metrics[n].get("value"), (int, float)))]
    check(not bad, f"{workload} {label}: every metric has a number and its declared unit {bad}")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} {label}: output checks pass")


def sim_part(result):
    return {k: v["value"] for k, v in result["metrics"].items() if k.startswith("sim_")}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        detail, result = run(w, 1, 0)
        if result is None:
            continue
        check_result(w, result, e2e, "untraced")
        check(all(k in detail for k in ("seed", "commit", "host", "fingerprint"))
              and {"nproc", "cpu_model"} <= set(detail["host"]),
              f"{w}: result records seed, commit, host nproc and CPU model")
        _, traced = run(w, 1, 1)
        if traced is not None:
            check_result(w, traced, layer, "traced")
        again, result_again = run(w, 1, 0)
        other, _ = run(w, 2, 0)
        if again is not None and other is not None:
            check(again["fingerprint"] == detail["fingerprint"]
                  and sim_part(result_again) == sim_part(result),
                  f"{w}: the same seed reproduces the fingerprint")
            check(other["fingerprint"] != detail["fingerprint"],
                  f"{w}: another seed gives other inputs")
        _, broken = run(w, 1, 0, "--sabotage")
        if broken is not None:
            check(broken["correct"] is False and broken["failed"] > 0,
                  f"{w}: output checks fire on a failed run "
                  f"(failed {broken['failed']}/{broken['attempted']})")
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
