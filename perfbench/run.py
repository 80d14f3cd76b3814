#!/usr/bin/env python3
"""Repository benchmark: build from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds perfbench/perfbench.exe and
the randsync CLI (release profile, without dune's shared cache, so
nothing is written outside the tree), runs the workload, and prints its
result object as the last line of stdout, checked against the metrics
BENCHMARK.json declares.  A traced run reports 0 for the per-layer
metrics of layers the workload does not enter.  Exits non-zero, without
a result, when the tree is not a buildable source tree, the workload
fails, or its metrics are not the declared ones.

    python3 perfbench/run.py --selfcheck

runs every workload briefly, untraced and traced, with the real goldens
(failed must be 0) and with --wrong-golden (every check must fail).

perfbench/NOTES.md describes the workloads and metrics.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["mc-seq-deep", "synth-rw-d2"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join("_build", "default", "bin", "randsync_cli.exe")
RUN_DIR = ".perfbench-run"
BUILD_TIMEOUT = 700
RUN_TIMEOUT = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            log(f"{need} is missing: run from the root of a randsync source tree")
            return False
    if shutil.which("dune") is None:
        log("dune is not on PATH")
        return False
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--cache=disabled", "perfbench/perfbench.exe", "bin/randsync_cli.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        log("build timed out")
        return False
    return done.returncode == 0


def run(args):
    """Runs the benchmark executable in its own process group, so a
    timeout also stops the serve daemon it spawned; returns its exit
    code and stdout."""
    proc = subprocess.Popen([EXE, *args, "--cli", CLI], stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT} s; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        return 1, None
    return proc.returncode, out


def selfcheck():
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            for wrong in (False, True):
                args = ["--workload", workload, "--seed", "1", "--seconds", "2",
                        "--trace", trace] + (["--wrong-golden"] if wrong else [])
                code, out = run(args)
                result = json.loads(out.decode().splitlines()[-1]) if code == 0 else None
                if result is None:
                    good = False
                elif wrong:
                    good = result["failed"] == result["attempted"] and not result["correct"]
                else:
                    good = result["failed"] == 0 and result["correct"]
                print(f"{workload:12} trace {trace} {'wrong' if wrong else 'real'} goldens: "
                      f"{'ok' if good else 'FAIL'} "
                      f"({result and {k: result[k] for k in ('attempted', 'failed')}})")
                ok = ok and good
    return 0 if ok else 1


def declared_metrics(traced):
    """Name -> unit of the metrics a run must report, from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def complete(result, traced):
    """Checks the result's metrics against the declared ones; in a traced
    run, adds 0 for each layer the workload does not enter.  Returns None
    when the metrics are not the declared ones."""
    declared = declared_metrics(traced)
    metrics = result["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            log(f"metric {name} ({m['unit']}) is not declared in BENCHMARK.json")
            return None
    missing = [name for name in declared if name not in metrics]
    if missing and not traced:
        log(f"end-to-end metrics missing: {', '.join(missing)}")
        return None
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}
    return result


def main():
    args = sys.argv[1:]
    if not os.path.exists("BENCHMARK.json"):
        log("BENCHMARK.json is missing: run from the root of a randsync source tree")
        return 1
    if not build():
        return 1
    if args == ["--selfcheck"]:
        return selfcheck()
    code, out = run(args)
    lines = out.decode().splitlines() if out else []
    if code != 0 or not lines:
        return code or 1
    for line in lines[:-1]:
        print(line)
    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    result = complete(json.loads(lines[-1]), traced)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
