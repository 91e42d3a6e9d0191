import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from poishom import (
    CheckError,
    FlatnessError,
    JacobiError,
    ModularFieldError,
    PoissonFieldError,
    Poly,
    lie_derivative,
)
from poishom.cli import (
    EXIT_INPUT,
    EXIT_MATH,
    EXIT_MODE,
    EXIT_OK,
    _Run,
    _verify_inputs,
    load,
    main,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ----------------------------------------------------------------------
# loading and validation


def test_load_minimal_symplectic():
    spec = load(str(PROBLEMS / "symplectic.json"))
    assert spec.variables == ["x", "y"]
    assert spec.bivector.terms == {(0, 1): Poly.constant(2, 1)}
    assert spec.module.rank == 1
    assert spec.twist_spec is None


def test_load_quadratic_with_modular_twist():
    spec = load(str(PROBLEMS / "quadratic.json"))
    assert spec.twist_spec == "modular"


def test_load_module_matrices():
    spec = load(str(PROBLEMS / "quadratic_rank2.json"))
    assert spec.module.rank == 2
    assert spec.module.brackets[0][0][0].text(["x", "y"]) == "x"


def test_load_rejects_decreasing_indices(tmp_path):
    path = write(
        tmp_path, "bad.json",
        {"variables": ["x", "y"], "poisson": {"2,1": "1"}, "volume": "1"},
    )
    from poishom import SchemaError

    with pytest.raises(SchemaError, match="poisson.2,1"):
        load(path)


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"poisson": {}, "volume": "1"}, "variables"),
        ({"variables": ["x", "x"], "poisson": {}, "volume": "1"}, "variables"),
        ({"variables": ["x", "y"], "poisson": {"1,3": "1"}, "volume": "1"}, "poisson.1,3"),
        ({"variables": ["x", "y"], "poisson": {"1,2": "x+"}, "volume": "1"}, "poisson.1,2"),
        ({"variables": ["x", "y"], "poisson": {}, "volume": "0"}, "volume"),
        ({"variables": ["x", "y"], "poisson": {}, "volume": "1", "extra": 1}, "extra"),
        (
            {"variables": ["x", "y"], "poisson": {}, "volume": "1",
             "module": {"rank": 2, "bracket": {"x": [["0", "0"]]}}},
            "module.bracket.x",
        ),
        (
            {"variables": ["x", "y"], "poisson": {}, "volume": "1",
             "twist": {"components": ["x"]}},
            "twist.components",
        ),
        # the volume is read with the polynomial grammar: no decimals or exponents
        ({"variables": ["x", "y"], "poisson": {}, "volume": "1.5"}, "volume"),
        ({"variables": ["x", "y"], "poisson": {}, "volume": "1e3"}, "volume"),
        ({"variables": ["x", "y"], "poisson": {}, "volume": "x"}, "volume"),
        # every name must read back as its own coordinate
        ({"variables": ["x", "2"], "poisson": {"1,2": "2"}, "volume": "1"}, "variables"),
        ({"variables": ["a b", "y"], "poisson": {}, "volume": "1"}, "variables"),
        ({"variables": ["x", "y", "x*y"], "poisson": {}, "volume": "1"}, "variables"),
        # unknown keys inside "module" and "twist" are refused like top-level ones
        (
            {"variables": ["x", "y"], "poisson": {}, "volume": "1",
             "module": {"rank": 1, "bracket": {}, "brackets": {"x": [["x"]]}}},
            "module.brackets",
        ),
        (
            {"variables": ["x", "y"], "poisson": {}, "volume": "1",
             "twist": {"components": ["0", "0"], "scale": 3}},
            "twist.scale",
        ),
    ],
)
def test_load_schema_violations(tmp_path, payload, field):
    from poishom import SchemaError

    path = write(tmp_path, "bad.json", payload)
    with pytest.raises(SchemaError) as err:
        load(path)
    assert field in str(err.value)


@pytest.mark.parametrize("text,value", [("3/2", Fraction(3, 2)), ("-2", -2)])
def test_load_constant_volume(tmp_path, text, value):
    path = write(tmp_path, "volume.json", {"variables": ["x", "y"], "poisson": {}, "volume": text})
    assert load(path).volume.coefficient == value


def test_usage_errors_exit_3(capsys):
    so3 = str(PROBLEMS / "so3.json")
    for argv in (["duality", so3, "--trials", "abc"], ["duality", so3, "--trials", "-1"],
                 ["check", so3, "--bogus"], ["check"]):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("usage: poishom") and "error:" in err
    assert main(["--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: poishom")


def test_missing_file_exits_3(capsys):
    assert main(["check", "/nonexistent/problem.json"]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_invalid_json_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == EXIT_INPUT


def test_duplicate_poisson_pair_exits_3(tmp_path, capsys):
    # "1,2" and " 1, 2" name the same pair; neither may silently win
    path = write(
        tmp_path, "pair.json",
        {"variables": ["x", "y"], "poisson": {"1,2": "x*y", " 1, 2": "1"}, "volume": "1"},
    )
    assert main(["check", path]) == EXIT_INPUT
    assert "poisson. 1, 2: duplicate pair 1,2" in capsys.readouterr().err


def test_repeated_json_key_exits_3(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text('{"variables": ["x", "y"], "poisson": {"1,2": "x*y", "1,2": "1"}, '
                    '"volume": "1"}')
    assert main(["check", str(path)]) == EXIT_INPUT
    assert "1,2: duplicate key" in capsys.readouterr().err


def _exits_3_within_a_second(argv, capsys, message="exceeds the limit"):
    start = perf_counter()
    code = main(argv)
    assert perf_counter() - start < 1.0
    assert code == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_oversized_power_exits_3_before_expanding(tmp_path, capsys):
    path = write(
        tmp_path, "power.json",
        {"variables": ["x", "y", "z"], "poisson": {"1,2": "(x+y+z)^200"}, "volume": "1"},
    )
    _exits_3_within_a_second(["check", path], capsys)


def test_oversized_exponent_exits_3_before_slicing(tmp_path, capsys):
    path = write(
        tmp_path, "exponent.json",
        {"variables": ["x", "y", "z"], "poisson": {"1,2": "x^99999999999999999999"},
         "volume": "1"},
    )
    _exits_3_within_a_second(["cohomology", path, "--max-weight", "2"], capsys)


def test_oversized_term_count_exits_3_before_expanding(tmp_path, capsys):
    # within MAX_PARSE_DEGREE, but (a+...+f)^32 would have 435,897 terms
    path = write(
        tmp_path, "terms.json",
        {"variables": ["a", "b", "c", "d", "e", "f"],
         "poisson": {"1,2": "(a+b+c+d+e+f)^32"}, "volume": "1"},
    )
    _exits_3_within_a_second(["check", path], capsys)


def test_deeply_nested_polynomial_exits_3(tmp_path, capsys):
    deep = "(" * 2000 + "x" + ")" * 2000
    path = write(
        tmp_path, "nested.json",
        {"variables": ["x", "y"], "poisson": {"1,2": deep}, "volume": "1"},
    )
    _exits_3_within_a_second(["check", path], capsys)


def test_deeply_nested_json_exits_3(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"variables": ["x", "y"], "poisson": {"1,2": "x"}, "volume": "1", '
                    '"module": ' + "[" * 100000 + "]" * 100000 + "}")
    _exits_3_within_a_second(["check", str(path)], capsys)


@pytest.mark.parametrize("entry", ["9" * 5000 + "*x", "x^" + "9" * 5000])
def test_long_number_exits_3(tmp_path, capsys, entry):
    # past the interpreter's 4,300-digit int() limit; was a ValueError traceback
    path = write(
        tmp_path, "digits.json",
        {"variables": ["x", "y"], "poisson": {"1,2": entry}, "volume": "1"},
    )
    _exits_3_within_a_second(["check", path], capsys)


@pytest.mark.parametrize("volume,message", [
    ("1e5000", "volume: unexpected trailing input 'e'"),
    ("9" * 5000, "volume: digit count 5000 exceeds the limit"),
], ids=["exponent", "5000-digits"])
def test_volume_outside_the_grammar_exits_3(tmp_path, capsys, volume, message):
    # "1e5000" used to load and end in a ValueError traceback from the digest
    path = write(
        tmp_path, "volume.json",
        {"variables": ["x", "y"], "poisson": {"1,2": "1"}, "volume": volume},
    )
    _exits_3_within_a_second(["check", path], capsys, message)


def test_oversized_module_rank_exits_3_before_allocating(tmp_path, capsys):
    # loading allocates rank^2 bracket entries per variable before reading any
    path = write(
        tmp_path, "rank.json",
        {"variables": ["x", "y"], "poisson": {"1,2": "1"}, "volume": "1",
         "module": {"rank": 1000000000, "bracket": {}}},
    )
    _exits_3_within_a_second(["check", path], capsys)


def _trivial_rank32(nvars):
    names = [f"v{i + 1}" for i in range(nvars)]
    return {"variables": names, "poisson": {"1,2": "v1*v2"}, "volume": "1",
            "module": {"rank": 32, "bracket": {}}}


def test_too_many_variables_exit_3(tmp_path, capsys):
    # the flatness gate used to bracket every zero entry: 75 s on a 2-core machine
    path = write(tmp_path, "wide.json", _trivial_rank32(40))
    _exits_3_within_a_second(["check", path], capsys)


def test_variable_limit_checks_a_trivial_module_quickly(tmp_path, capsys):
    path = write(tmp_path, "wide.json", _trivial_rank32(16))
    start = perf_counter()
    assert main(["check", path]) == EXIT_OK
    assert perf_counter() - start < 1.0
    assert "flat: True" in capsys.readouterr().out


@pytest.mark.parametrize("rank", [True, False])
def test_boolean_module_rank_exits_3(tmp_path, capsys, rank):
    # bool subclasses int, so true used to load as rank 1
    path = write(
        tmp_path, "bool.json",
        {"variables": ["x", "y"], "poisson": {"1,2": "1"}, "volume": "1",
         "module": {"rank": rank, "bracket": {"x": [["1"]]}}},
    )
    assert main(["check", path]) == EXIT_INPUT
    assert "module.rank" in capsys.readouterr().err


def test_every_shipped_problem_file_loads():
    bench_inputs = PROBLEMS.parent / "bench" / "inputs"
    paths = sorted(PROBLEMS.glob("*.json")) + sorted(bench_inputs.glob("*.json"))
    assert paths
    for path in paths:
        load(str(path))


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json"))
                         + sorted((PROBLEMS.parent / "bench" / "inputs").glob("*.json")),
                         ids=lambda path: path.name)
def test_integral_input_coefficients_are_stored_as_ints(path):
    # the arithmetic stays on Python ints only if the inputs start there
    problem = load(str(path))
    run = _Run(None, problem)
    try:
        _verify_inputs(run)  # applies the modular twist of quadratic.json
    except CheckError:
        assert run.module is None  # the Jacobi gate refuses nonjacobi.json
    module = problem.module if run.module is None else run.module
    polys = list(problem.bivector.terms.values())
    polys += [p for matrix in module.brackets for row in matrix for p in row]
    coefficients = [c for p in polys for c in p.terms.values()]
    coefficients.append(problem.volume.coefficient)
    assert all(type(c) is int for c in coefficients if c.denominator == 1)


# ----------------------------------------------------------------------
# commands and exit codes


def test_check_ok(capsys):
    assert main(["check", str(PROBLEMS / "quadratic_rank2.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "jacobi: True" in out and "flat: True" in out


def test_one_variable_problem_exits_0(tmp_path, capsys):
    # the line R^1: pi = 0 is a bivector there too, and {e, x} = x^3 e
    path = write(tmp_path, "line.json", {
        "variables": ["x"], "poisson": {}, "volume": "1",
        "module": {"rank": 1, "bracket": {"x": [["x^3"]]}},
    })
    for command in ("check", "modular", "cohomology", "homology"):
        assert main([command, path]) == EXIT_OK
    assert main(["duality", path, "--max-weight", "4", "--trials", "5"]) == EXIT_OK
    assert "duality: ok" in capsys.readouterr().out


def test_check_nonjacobi_exits_1_with_witness(capsys):
    assert main(["check", str(PROBLEMS / "nonjacobi.json"), "--format", "json"]) == EXIT_MATH
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == {"jacobi": False, "ok": False}
    witness = report["witnesses"][0]
    assert witness["check"] == "jacobi"
    assert witness["triple"] == ["x", "y", "z"]
    assert witness["jacobiator"] == "1"


NONFLAT = {"variables": ["x", "y"], "poisson": {"1,2": "1"}, "volume": "1",
           "module": {"rank": 1, "bracket": {"x": [["x"]]}}}
BAD_TWIST = {"variables": ["x", "y"], "poisson": {"1,2": "1"}, "volume": "1",
             "twist": {"components": ["x", "0"]}}


def test_check_nonflat_module_exits_1(tmp_path, capsys):
    path = write(tmp_path, "nonflat.json", NONFLAT)
    assert main(["check", path, "--format", "json"]) == EXIT_MATH
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == {"jacobi": True, "flat": False, "ok": False}
    assert report["witnesses"][0]["check"] == "flatness"
    assert report["witnesses"][0]["discrepancy"] == ["-1"]


def test_invalid_twist_field_exits_1(tmp_path, capsys):
    path = write(tmp_path, "badtwist.json", BAD_TWIST)
    assert main(["check", path, "--format", "json"]) == EXIT_MATH
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == {"jacobi": True, "flat": True, "ok": False}
    assert report["witnesses"][0]["check"] == "poisson_vector_field"


@pytest.mark.parametrize("error,problem", [
    (JacobiError, "nonjacobi.json"),
    (FlatnessError, NONFLAT),
    (PoissonFieldError, BAD_TWIST),
    (ModularFieldError, "quadratic.json"),
], ids=["jacobi", "flatness", "poisson_field", "modular_field"])
def test_check_error_renders_the_cli_witness(tmp_path, monkeypatch, capsys, error, problem):
    if error is ModularFieldError:
        monkeypatch.setattr("poishom.poisson.lie_derivative", lambda field, omega: omega.scale(0))
    if isinstance(problem, dict):
        path = write(tmp_path, "bad.json", problem)
    else:
        path = str(PROBLEMS / problem)
    spec = load(path)
    with pytest.raises(error) as info:
        _verify_inputs(_Run(None, spec))
    exc = info.value
    assert str(exc) == json.dumps(exc.payload(), sort_keys=True)
    default = exc.payload([f"x{i + 1}" for i in range(len(spec.variables))])
    assert exc.payload() == default != exc.payload(spec.variables)
    assert main(["check", path, "--format", "json"]) == EXIT_MATH
    assert json.loads(capsys.readouterr().out)["witnesses"] == [exc.payload(spec.variables)]


def test_modular_symplectic_components(capsys):
    assert main(["modular", str(PROBLEMS / "symplectic.json"), "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["modular_field"] == ["0", "0"]


def test_modular_quadratic_components(capsys):
    assert main(["modular", str(PROBLEMS / "quadratic.json"), "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["modular_field"] == ["-x", "y"]
    assert report["results"]["is_poisson_vector_field"] is True


@pytest.mark.parametrize("command", ["check", "modular", "duality"])
def test_modular_cross_check_failure_exits_1_with_witness(command, monkeypatch, capsys):
    # the Lie-derivative side of the cross-check is forced to zero
    monkeypatch.setattr("poishom.poisson.lie_derivative", lambda field, omega: omega.scale(0))
    argv = [command, str(PROBLEMS / "quadratic.json"), "--format", "json"]
    assert main(argv) == EXIT_MATH
    report = json.loads(capsys.readouterr().out)
    assert report["witnesses"] == [{
        "check": "modular_field", "coordinate": "x",
        "lie_derivative": "0", "expected": "-x",
    }]
    if command == "check":
        assert report["results"] == {"jacobi": True, "flat": True, "ok": False}


def test_duality_with_modular_twist_computes_the_modular_field_once(monkeypatch):
    # the twist and the duality check share one modular field per volume
    calls = []

    def counted(field, omega):
        calls.append(field)
        return lie_derivative(field, omega)

    monkeypatch.setattr("poishom.poisson.lie_derivative", counted)
    path = PROBLEMS / "quadratic.json"
    assert json.loads(path.read_text())["twist"] == "modular"
    argv = ["duality", str(path), "--max-weight", "1", "--trials", "0"]
    assert main(argv) == EXIT_OK
    assert len(calls) == 2  # one cross-check per coordinate of R^2


def test_closed_stdout_exits_quietly():
    # as in `poishom cohomology ... | head -1`: the reader has gone before
    # the report is written
    src = str(PROBLEMS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "poishom.cli", "cohomology", str(PROBLEMS / "so3.json"),
         "--max-weight", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert code == EXIT_OK


def test_cohomology_table(capsys):
    code = main(
        ["cohomology", str(PROBLEMS / "symplectic.json"), "--max-weight", "4",
         "--format", "json"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    entries = {(e["degree"], e["weight"]): e["dim"] for e in report["results"]["entries"]}
    assert entries[(0, 0)] == 1
    assert all(d == 0 for (k, _), d in entries.items() if k > 0)


def test_homology_degree_filter(capsys):
    code = main(
        ["homology", str(PROBLEMS / "symplectic.json"), "--degree", "2",
         "--max-weight", "4", "--format", "json"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    entries = report["results"]["entries"]
    assert entries and all(e["degree"] == 2 for e in entries)


def test_graded_mode_violation_exits_2(tmp_path, capsys):
    path = write(
        tmp_path, "mixed.json",
        {"variables": ["x", "y"], "poisson": {"1,2": "1 + x*y"}, "volume": "1"},
    )
    assert main(["cohomology", path]) == EXIT_MODE
    assert "graded-mode violation" in capsys.readouterr().err


def test_duality_quadratic_ok(capsys):
    code = main(
        ["duality", str(PROBLEMS / "quadratic.json"), "--max-weight", "4",
         "--trials", "10", "--seed", "7", "--format", "json"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    duality = report["results"]["duality"]
    assert duality["ok"] is True
    assert duality["modular_field"] == ["-x", "y"]
    assert duality["diagram"]["checked"] > 0


def test_duality_so3_ok(capsys):
    code = main(
        ["duality", str(PROBLEMS / "so3.json"), "--max-weight", "3",
         "--trials", "5", "--seed", "1", "--format", "json"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["duality"]["modular_field"] == ["0", "0", "0"]


def test_spec_digest_covers_twist_and_run_parameters(tmp_path, capsys):
    # HP^2 of quadratic.json differs with and without its modular twist
    payload = json.loads((PROBLEMS / "quadratic.json").read_text())
    del payload["twist"]
    untwisted = write(tmp_path, "untwisted.json", payload)

    def digest(*argv):
        main([*argv, "--format", "json"])
        return json.loads(capsys.readouterr().out)["spec_digest"]

    twisted = str(PROBLEMS / "quadratic.json")
    assert digest("cohomology", twisted) != digest("cohomology", untwisted)
    assert digest("cohomology", twisted) != digest("cohomology", twisted, "--max-weight", "5")
    main(["duality", twisted, "--max-weight", "2", "--trials", "3", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["spec_digest"] == report["results"]["duality"]["spec_digest"]


def test_duality_json_deterministic_for_fixed_seed(capsys):
    args = [
        "duality", str(PROBLEMS / "quadratic.json"), "--max-weight", "3",
        "--trials", "8", "--seed", "13", "--format", "json",
    ]
    assert main(args) == EXIT_OK
    first = json.loads(capsys.readouterr().out)
    assert main(args) == EXIT_OK
    second = json.loads(capsys.readouterr().out)
    first.pop("generated_at")
    second.pop("generated_at")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_zero_structure_commands(capsys):
    assert main(["check", str(PROBLEMS / "zero.json")]) == EXIT_OK
    capsys.readouterr()
    assert main(
        ["cohomology", str(PROBLEMS / "zero.json"), "--max-weight", "3",
         "--format", "json"]
    ) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    entries = {(e["degree"], e["weight"]): e["dim"] for e in report["results"]["entries"]}
    # zero differentials: betti = slice dimension = C(2,k) * (p+1)
    assert entries[(1, 0)] == 2 * 2  # k=1, coefficient degree 1
