"""Batch front end: parse problem files, run checks, emit tables or JSON.

Problem file schema (JSON)::

    {
      "variables": ["x", "y"],              # coordinate names
      "poisson":   {"1,2": "x*y"},          # {x_i,x_j} for i<j, 1-based
      "volume":    "1",                     # nonzero constant, e.g. "3/2"
      "module":    {"rank": 2,              # optional; default trivial rank 1
                    "bracket": {"x": [["x","0"],["0","0"]],
                                "y": [["0","0"],["0","y"]]}},
      "twist":     "modular"                # optional; or {"components": [...]}
    }

A ``twist`` entry transforms the coefficient module before any computation:
``"modular"`` twists by the modular vector field of the declared volume,
an explicit component list must be a Poisson vector field.

Every command first passes the input through the constructor gates: the
Jacobi identity (``PoissonStructure``), flatness of the module for that
structure (``PoissonModule(..., structure=)``) and, when twisting, the
Poisson property of the twisting field (``twist``).

Exit codes: 0 success; 1 mathematical check failed, always with the report
on standard output and a witness in it (Jacobi, flatness, Poisson vector
field, modular-field cross-check or duality); 2 graded-mode/precondition
violation; 3 input error, a malformed command line included. A reader that
closes standard output early (``poishom ... | head``) does not change the
exit code and causes no traceback.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from .calculus import MultiVector
from .errors import (
    CheckError,
    FlatnessError,
    GradedModeError,
    JacobiError,
    ParseError,
    PoishomError,
    SchemaError,
)
from .homology import betti_table, spec_digest, verify_duality
from .pmodule import PoissonModule, twist
from .poisson import PoissonStructure, VolumeForm
from .poly import Poly

EXIT_OK = 0
EXIT_MATH = 1
EXIT_MODE = 2
EXIT_INPUT = 3

# Largest module rank a problem file may declare. Loading allocates rank^2
# bracket entries per variable before reading any, and slices grow with the
# rank: so(3) duality to weight 2 at rank 32 took 33 s on a 2-core machine.
# The shipped inputs and tests use rank 2 at most.
MAX_MODULE_RANK = 32
# Largest number of variables a problem file may declare (the shipped ones use 4 at most).
MAX_VARIABLES = 16


class ProblemSpec:
    """A validated problem file."""

    def __init__(self, variables, bivector, volume, module, twist_spec):
        self.variables = variables
        self.bivector = bivector  # MultiVector, Jacobi not yet checked
        self.volume = volume
        self.module = module  # PoissonModule, flatness not yet checked
        self.twist_spec = twist_spec  # None | "modular" | MultiVector


def _require(condition, path, message):
    if not condition:
        raise SchemaError(path, message)


def _parse_poly(text, variables, path):
    _require(isinstance(text, str), path, "expected a polynomial string")
    try:
        return Poly.parse(text, variables)
    except ParseError as exc:
        raise SchemaError(path, str(exc)) from exc


def _unique_keys(pairs):
    """``object_pairs_hook`` that refuses a key repeated within one object."""
    data = {}
    for key, value in pairs:
        _require(key not in data, key, "duplicate key")
        data[key] = value
    return data


def _known_fields(data: dict, known: set, prefix: str = ""):
    for key in data:
        _require(key in known, prefix + key, "unknown field")


def _count(text: str) -> int:
    """argparse type of a count: a non-negative integer."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return int(text)


def load(path: str) -> ProblemSpec:
    """Load and fully validate a problem file.

    The mathematical checks (Jacobi, flatness, the twisting field) are left
    to ``_verify_inputs``, so a file that fails one still loads.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise SchemaError(path, f"invalid JSON: {exc}") from exc
        except RecursionError as exc:  # the decoder recurses once per level
            raise SchemaError(path, "JSON nesting exceeds the limit of the decoder") from exc
    _require(isinstance(data, dict), "$", "top level must be an object")
    _known_fields(data, {"variables", "poisson", "volume", "module", "twist"})

    variables = data.get("variables")
    _require(isinstance(variables, list) and variables, "variables",
             "expected a nonempty array of names")
    _require(all(isinstance(v, str) and v for v in variables), "variables",
             "names must be nonempty strings")
    _require(len(set(variables)) == len(variables), "variables", "duplicate names")
    n = len(variables)
    _require(n <= MAX_VARIABLES, "variables", f"count {n} exceeds the limit {MAX_VARIABLES}")
    for i, name in enumerate(variables):  # each name must read back as its coordinate
        _require(_parse_poly(name, variables, "variables") == Poly.variable(n, i),
                 "variables", f"{name!r} does not parse as a variable name")

    poisson = data.get("poisson")
    _require(isinstance(poisson, dict), "poisson", "expected an object")
    components = {}
    for key, text in poisson.items():
        parts = key.split(",")
        _require(len(parts) == 2, f"poisson.{key}", 'keys must look like "i,j"')
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise SchemaError(f"poisson.{key}", "indices must be integers")
        _require(1 <= i <= n and 1 <= j <= n, f"poisson.{key}", "index out of range")
        _require(i < j, f"poisson.{key}", "indices must be increasing (i < j)")
        _require((i - 1, j - 1) not in components, f"poisson.{key}",
                 f"duplicate pair {i},{j}")
        components[(i - 1, j - 1)] = _parse_poly(text, variables, f"poisson.{key}")
    bivector = MultiVector(n, 2, components)

    constant = _parse_poly(data.get("volume"), variables, "volume")
    value = constant.coefficient((0,) * n)
    _require(value != 0 and len(constant.terms) == 1, "volume", "expected a nonzero constant")
    volume = VolumeForm(value)

    module_data = data.get("module")
    if module_data is None:
        module = PoissonModule.trivial(n, 1)
    else:
        _require(isinstance(module_data, dict), "module", "expected an object")
        _known_fields(module_data, {"rank", "bracket"}, "module.")
        rank = module_data.get("rank")
        _require(type(rank) is int and rank >= 1, "module.rank",  # refuses true
                 "expected a positive integer")
        _require(rank <= MAX_MODULE_RANK, "module.rank",
                 f"rank {rank} exceeds the limit {MAX_MODULE_RANK}")
        bracket = module_data.get("bracket")
        _require(isinstance(bracket, dict), "module.bracket", "expected an object")
        zero = Poly.zero(n)
        matrices = [[[zero] * rank for _ in range(rank)] for _ in range(n)]
        for name, rows in bracket.items():
            _require(name in variables, f"module.bracket.{name}", "unknown variable")
            i = variables.index(name)
            _require(isinstance(rows, list) and len(rows) == rank,
                     f"module.bracket.{name}", f"expected {rank} rows")
            for a, row in enumerate(rows):
                _require(isinstance(row, list) and len(row) == rank,
                         f"module.bracket.{name}[{a}]", f"expected {rank} entries")
                for b, text in enumerate(row):
                    matrices[i][a][b] = _parse_poly(
                        text, variables, f"module.bracket.{name}[{a}][{b}]"
                    )
        module = PoissonModule(
            n, rank, tuple(tuple(tuple(row) for row in m) for m in matrices)
        )

    twist_data = data.get("twist")
    if twist_data is None:
        twist_spec = None
    elif twist_data == "modular":
        twist_spec = "modular"
    else:
        _require(isinstance(twist_data, dict), "twist",
                 'expected "modular" or {"components": [...]}')
        _known_fields(twist_data, {"components"}, "twist.")
        comps = twist_data.get("components")
        _require(isinstance(comps, list) and len(comps) == n, "twist.components",
                 f"expected {n} polynomial strings")
        terms = {}
        for i, text in enumerate(comps):
            poly = _parse_poly(text, variables, f"twist.components[{i}]")
            if not poly.is_zero():
                terms[(i,)] = poly
        twist_spec = MultiVector(n, 1, terms)

    return ProblemSpec(variables, bivector, volume, module, twist_spec)


# ----------------------------------------------------------------------


class _Run:
    """Collects results and witnesses for one CLI invocation."""

    def __init__(self, args, problem: ProblemSpec):
        self.args = args
        self.problem = problem
        self.module = None  # the working module, once the input gate passes
        self.names = problem.variables
        self.results = {}
        self.witnesses = []
        self.exit_code = EXIT_OK

    def fail(self, payload):
        self.witnesses.append(payload)
        self.exit_code = EXIT_MATH

    def report(self):
        problem = self.problem
        params = {name: getattr(self.args, name) for name in ("max_weight", "trials", "seed")
                  if hasattr(self.args, name)}
        if self.module is None and isinstance(problem.twist_spec, MultiVector):
            params["twist"] = problem.twist_spec.text()  # its witness depends on it
        module = problem.module if self.module is None else self.module
        return {
            "command": self.args.command,
            "spec_digest": spec_digest(problem.bivector, module, problem.volume, params),
            "results": self.results,
            "witnesses": self.witnesses,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }


def _verify_inputs(run: _Run, need_twist: bool = True):
    """Build the structure and the working module through their gates.

    ``PoissonStructure`` checks Jacobi, ``PoissonModule(..., structure=)``
    checks flatness (also of the default trivial module) and ``twist``
    checks the twisting field; each raises its typed error with a witness,
    which ``main`` reports. Returns (structure, working module) and records
    the working module on ``run``; it has the file's twist applied when
    ``need_twist`` is set.
    """
    problem = run.problem
    structure = PoissonStructure(problem.bivector)
    m = problem.module
    module = PoissonModule(m.nvars, m.rank, m.brackets, structure=structure)
    if need_twist and problem.twist_spec is not None:
        phi = problem.twist_spec
        if phi == "modular":
            phi = structure.modular_vector_field(problem.volume)
        module = twist(module, structure, phi)
    run.module = module
    return structure, module


def _cmd_check(run: _Run, args):
    results = run.results
    try:
        _, module = _verify_inputs(run)
    except CheckError as exc:
        results["jacobi"] = not isinstance(exc, JacobiError)
        if results["jacobi"]:
            results["flat"] = not isinstance(exc, FlatnessError)
        results["ok"] = False
        raise
    results.update(jacobi=True, flat=True, ok=True, rank=module.rank)


def _cmd_modular(run: _Run, args):
    structure, _ = _verify_inputs(run, need_twist=False)
    phi = structure.modular_vector_field(run.problem.volume)
    run.results["modular_field"] = [phi.evaluate(x_i).text(run.names)
                                    for x_i in structure.coordinates]
    run.results["is_poisson_vector_field"] = structure.poisson_field_defect(phi) is None


def _cmd_betti(run: _Run, args, kind):
    structure, module = _verify_inputs(run)
    table = betti_table(structure, module, kind, args.max_weight)
    entries = table.to_dict()["entries"]
    if args.degree is not None:
        entries = [e for e in entries if e["degree"] == args.degree]
    if args.weight is not None:
        entries = [e for e in entries if e["weight"] == args.weight]
    run.results["kind"] = kind
    run.results["entries"] = entries
    run.results["metadata"] = table.metadata


def _cmd_duality(run: _Run, args):
    structure, module = _verify_inputs(run)
    report = verify_duality(
        structure, module, run.problem.volume,
        max_weight=args.max_weight, trials=args.trials, seed=args.seed,
    )
    run.results["duality"] = report.to_dict(run.names)
    if not report.ok():
        run.exit_code = EXIT_MATH
        for failure in report.diagram_failures:
            run.witnesses.append({"check": "duality_diagram", **failure})
        for pair in report.betti_pairs:
            if not pair["equal"]:
                run.witnesses.append({"check": "duality_betti", **pair})


# ----------------------------------------------------------------------
# rendering


def _render_table(report: dict) -> str:
    lines = [f"command: {report['command']}", f"spec: {report['spec_digest']}"]
    results = report["results"]
    for key, value in results.items():
        if key == "entries":
            lines.append("degree weight dim")
            for entry in value:
                lines.append(
                    f"{entry['degree']:>6} {entry['weight']:>6} {entry['dim']:>4}"
                )
        elif key == "duality":
            lines.append(f"modular field: {value['modular_field']}")
            diagram = value["diagram"]
            lines.append(
                f"diagram checks: {diagram['checked']} basis + "
                f"{diagram['random_checked']} random, "
                f"{'ok' if diagram['ok'] else 'FAILED'}"
            )
            betti = value["betti"]
            if betti["computed"]:
                lines.append(
                    f"betti pairs: {len(betti['pairs'])}, "
                    f"{'ok' if betti['ok'] else str(betti['failures']) + ' FAILED'}"
                )
                for pair in betti["pairs"]:
                    mark = "==" if pair["equal"] else "!="
                    lines.append(
                        f"  HP^{pair['degree']}[w={pair['weight']}] = "
                        f"{pair['cohomology_dim']} {mark} "
                        f"{pair['homology_dim']} = HP_{pair['homology_degree']}"
                        f"[w={pair['homology_weight']}]"
                    )
            else:
                lines.append(betti["note"])
            lines.append(f"duality: {'ok' if value['ok'] else 'FAILED'}")
        elif key == "metadata":
            lines.append(f"metadata: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{key}: {value}")
    for witness in report["witnesses"]:
        lines.append(f"witness: {json.dumps(witness, sort_keys=True)}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poishom",
        description="Exact Poisson (co)homology and twisted duality checks "
        "on polynomial data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("check", "verify the Jacobi identity and module flatness"),
        ("modular", "print the modular vector field of the declared volume"),
        ("cohomology", "weight-graded cohomology Betti table"),
        ("homology", "weight-graded homology Betti table"),
        ("duality", "verify the twisted duality square and Betti equalities"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("problem", help="path to a JSON problem file")
        cmd.add_argument("--format", choices=["table", "json"], default="table")
        if name in ("cohomology", "homology"):
            cmd.add_argument("--degree", type=int, default=None)
            cmd.add_argument("--weight", type=int, default=None)
            cmd.add_argument("--max-weight", type=int, default=6)
        if name == "duality":
            cmd.add_argument("--max-weight", type=int, default=6)
            cmd.add_argument("--trials", type=_count, default=25)
            cmd.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        problem = load(args.problem)
    except (SchemaError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    run = _Run(args, problem)
    try:
        if args.command == "check":
            _cmd_check(run, args)
        elif args.command == "modular":
            _cmd_modular(run, args)
        elif args.command == "cohomology":
            _cmd_betti(run, args, "cohomology")
        elif args.command == "homology":
            _cmd_betti(run, args, "homology")
        elif args.command == "duality":
            _cmd_duality(run, args)
    except CheckError as exc:
        run.fail(exc.payload(run.names))
    except GradedModeError as exc:
        print(f"graded-mode violation: {exc.text(run.names)}", file=sys.stderr)
        return EXIT_MODE
    except PoishomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODE

    report = run.report()
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = _render_table(report)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``| head``): send what is left to devnull, so
        # the flush at interpreter exit does not raise the same error again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
