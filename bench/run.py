"""Benchmark of the poishom command line: timed workloads, an exact-output
gate, and a per-layer trace.

Run from the root of a checkout:

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload so3-cohomology --seed 3
    python3 bench/run.py --workload duality-mix --trace 1 # per-layer metrics

A workload is a fixed list of ``poishom.cli.main`` invocations, run in this
process on one thread, again and again until ``--seconds`` is used up.
Before that, set-up (importing ``poishom`` and ``cli.load`` of the
workload's problem files) is timed ``SETUP_REPEATS`` times, each in a fresh
interpreter so that the standard-library imports count too. Every
invocation's exit code and results are reduced to a canonical form and
compared with the digest committed in ``expected.json``; the cohomology
workloads are also checked against closed-form Betti tables.

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` untraced and traced passes alternate
and the metrics are the per-layer ones, taken by ``tracing.Tracer``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 31

# Run by a fresh interpreter: argv is the source directory, then the
# problem files; prints the seconds taken by the import and the loads.
SETUP_CHILD = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
start = perf_counter()
import poishom.cli
for path in sys.argv[2:]:
    poishom.cli.load(path)
print(perf_counter() - start)
"""


def so3_betti(degree: int, weight: int) -> int:
    """so(3)* with the Lie-Poisson bracket: HP^0 is spanned by the powers
    of the Casimir x^2+y^2+z^2 (even weights >= 0), HP^3 by the Casimir
    powers times the volume multivector (odd weights >= -3)."""
    if degree == 0:
        return int(weight >= 0 and weight % 2 == 0)
    if degree == 3:
        return int(weight >= -3 and weight % 2 == 1)
    return 0


def symplectic_betti(degree: int, weight: int) -> int:
    """Symplectic R^2m: the Poisson complex is the de Rham complex, so only
    the constants survive."""
    return int((degree, weight) == (0, 0))


@dataclass(frozen=True)
class Invocation:
    name: str  # key of the committed digest in expected.json
    argv: tuple  # arguments of poishom.cli.main, without --format
    closed_form: object = None  # (degree, weight) -> Betti number, or None
    nvars: int = 0
    max_weight: int = 0

    def argv_for(self, seed: int) -> list:
        argv = [str(ROOT / a) if a.endswith(".json") else a for a in self.argv]
        if argv[0] == "duality":
            argv += ["--seed", str(seed)]
        return argv + ["--format", "json"]


@dataclass(frozen=True)
class Workload:
    problems: tuple  # files loaded during set-up, relative to the checkout root
    invocations: tuple


def _duality(path: str, weight: int) -> Invocation:
    stem = Path(path).stem
    return Invocation(f"duality-{stem}-w{weight}",
                      ("duality", path, "--max-weight", str(weight), "--trials", "25"))


_DUALITY_INPUTS = (
    *((f"problems/{p}.json", 6) for p in (
        "nonjacobi", "quadratic", "quadratic_rank2", "so3", "symplectic", "zero")),
    ("bench/inputs/jacobian_fermat.json", 6),
    ("bench/inputs/jacobian_nongraded.json", 10),
)

WORKLOADS = {
    "so3-cohomology": Workload(
        problems=("problems/so3.json",),
        invocations=(Invocation(
            "cohomology-so3-w12",
            ("cohomology", "problems/so3.json", "--max-weight", "12"),
            so3_betti, 3, 12),),
    ),
    "sympl4-cohomology": Workload(
        problems=("bench/inputs/symplectic4.json",),
        invocations=(Invocation(
            "cohomology-symplectic4-w3",
            ("cohomology", "bench/inputs/symplectic4.json", "--max-weight", "3"),
            symplectic_betti, 4, 3),),
    ),
    "duality-mix": Workload(
        problems=tuple(path for path, _ in _DUALITY_INPUTS),
        invocations=tuple(_duality(path, weight) for path, weight in _DUALITY_INPUTS),
    ),
}


# ----------------------------------------------------------------------
# output gate


def canonical_form(exit_code: int, report: dict | None) -> dict:
    """The parts of a report that must never change: the exit code, Betti
    entries, duality pairs and diagram counts. Timestamps and the spec
    digest are left out."""
    results = report["results"] if report else {}
    form = {"exit": exit_code}
    if "entries" in results:
        form["entries"] = [[e["degree"], e["weight"], e["dim"]] for e in results["entries"]]
    if "duality" in results:
        duality = results["duality"]
        form["betti_computed"] = duality["betti"]["computed"]
        form["pairs"] = [
            [p["degree"], p["weight"], p["cohomology_dim"], p["homology_degree"],
             p["homology_weight"], p["homology_dim"]]
            for p in duality["betti"]["pairs"]
        ]
        diagram = duality["diagram"]
        form["diagram"] = [diagram["checked"], diagram["random_checked"],
                           len(diagram["failures"])]
    return form


def digest(form: dict) -> str:
    text = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def closed_form_defect(invocation: Invocation, form: dict) -> str | None:
    """First (degree, weight) where the Betti table departs from the closed form."""
    got = {(k, w): d for k, w, d in form.get("entries", [])}
    want = {
        (k, w): invocation.closed_form(k, w)
        for k in range(invocation.nvars + 1)
        for w in range(-k, invocation.max_weight + 1)
    }
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            return f"HP^{key[0]} at weight {key[1]}: got {got.get(key)}, " \
                   f"closed form {want.get(key)}"
    return None


def check(invocation: Invocation, exit_code, stdout: str, expected: dict) -> tuple:
    """(error message or None, diagram elements checked) of one invocation."""
    if exit_code is None:
        return "raised", 0
    try:
        report = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return "output is not JSON", 0
    form = canonical_form(exit_code, report)
    checked, random_checked, _ = form.get("diagram", [0, 0, 0])
    got = digest(form)
    if got != expected.get(invocation.name):
        error = f"digest {got} differs from expected; canonical form " \
                f"{json.dumps(form, sort_keys=True)}"
    elif invocation.closed_form is not None:
        error = closed_form_defect(invocation, form)
    else:
        error = None
    return error, checked + random_checked


# ----------------------------------------------------------------------
# running


def set_up_seconds(problems: tuple) -> float:
    """Seconds a fresh interpreter takes to import poishom and load the
    problem files."""
    child = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC),
         *(str(ROOT / path) for path in problems)],
        capture_output=True, text=True, cwd=ROOT, timeout=60, check=True,
    )
    return float(child.stdout)


def run_pass(cli, workload: Workload, seed: int, tracer=None) -> tuple:
    """Run every invocation once; (wall seconds, [(invocation, exit, stdout)])."""
    clock = tracer.now if tracer else perf_counter
    wall = 0.0
    outputs = []
    for invocation in workload.invocations:
        argv = invocation.argv_for(seed)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer:
                    code = tracer.span("cli.main", cli.main, argv)
                else:
                    code = cli.main(argv)
        except (Exception, SystemExit):
            code = None
            traceback.print_exc()
        wall += clock() - start
        outputs.append((invocation, code, stdout.getvalue()))
    return wall, outputs


def git_revision() -> str | None:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def provenance(name: str, seed: int, why: str) -> dict:
    return {
        "workload": name,
        "why": why,
        "seed": seed,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict, expected: dict) -> dict:
    workload = WORKLOADS[name]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    setups = [set_up_seconds(workload.problems) for _ in range(SETUP_REPEATS)]
    from poishom import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"poishom was imported from {cli.__file__}, not from {SRC}")

    walls, traced_walls, layer_runs = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        passes = [(None, run_pass(cli, workload, seed))]
        gc.collect()
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                passes.append((tracer, run_pass(cli, workload, seed, tracer)))
            finally:
                tracer.uninstall()
        for tracer, (wall, outputs) in passes:
            elements = 0
            for invocation, code, stdout in outputs:
                error, checked = check(invocation, code, stdout, expected)
                attempted += 1
                elements += checked
                if error:
                    failed += 1
                    print(f"MISMATCH {invocation.name}: {error}", file=sys.stderr)
            if tracer is None:
                walls.append(wall)
            else:
                traced_walls.append(wall)
                layer_runs.append(tracer.layer_metrics(elements))
        gc.collect()
        elapsed = perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break

    print(f"workload {name}, seed {seed}: {why}")
    print(f"  {len(walls)} untraced passes of {len(workload.invocations)} invocations"
          + (f", {len(traced_walls)} traced" if trace else "")
          + f"; set-up repeated {len(setups)} times")
    print("  untraced pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"  error_rate {failed / attempted:.4f} ({failed} of {attempted} invocations)")
    if trace:
        metrics, self_times, absent = _median_layers(layer_runs)
        metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls)
        print("trace " + json.dumps({
            "metrics": metrics, "self_s": self_times, "absent": absent,
            "untraced_wall_s": statistics.median(walls),
            "traced_wall_s": statistics.median(traced_walls),
        }, sort_keys=True))
        wanted = spec["per_layer"]
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    out = {}
    for metric in wanted:
        if metric["name"] not in metrics:
            print(f"  {metric['name']} absent: the layer was not reached",
                  file=sys.stderr)
            continue
        value = metrics[metric["name"]]
        print(f"  {metric['name']:<36} {value:>14.6g} {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print("provenance " + json.dumps(provenance(name, seed, why), sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


def _median_layers(runs: list) -> tuple:
    """Median of each per-layer value over the traced passes."""
    metrics = {key: statistics.median(run[0][key] for run in runs)
               for key in runs[0][0] if all(key in run[0] for run in runs)}
    self_times = {key: statistics.median(run[1][key] for run in runs)
                  for key in runs[0][1]}
    return metrics, self_times, sorted(set().union(*(run[2] for run in runs)))


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    # The benchmark harness passes run_seconds of BENCHMARK.json here.
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "poishom" / "__init__.py").is_file():
        print(f"error: no poishom package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), spec, expected)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
