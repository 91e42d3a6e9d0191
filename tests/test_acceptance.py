"""Acceptance suite: one test per criterion, exact equalities throughout.

Each test prints a `[criterion N] ...: PASS` line on success; a failure
surfaces as the usual pytest failure for that criterion. Criteria 4 and 5
share one duality run per catalog entry through a module-scoped fixture.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from poishom import (
    Grading,
    JacobiError,
    ModuleChainElement,
    ModuleCochainElement,
    PoissonModule,
    PoissonStructure,
    Poly,
    VolumeForm,
    betti,
    betti_table,
    chain_differential,
    cochain_differential,
    elw_connection,
    interior_product,
    lie_derivative,
    twist,
    verify_duality,
)

from catalog import (
    chain_catalog,
    graded_catalog,
    nonjacobi3,
    p2,
    quadratic2,
    quadratic_rank2,
    rand_chain_element,
    rand_cochain_element,
    rand_form,
    rand_multivector,
    slice_basis,
    so3,
    so3_rank2,
    symplectic2,
    symplectic_rank2,
    zero2,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def ok(number, message):
    print(f"[criterion {number}] {message}: PASS")


# ----------------------------------------------------------------------
# 1. Jacobi gate


def test_c1_jacobi_gate():
    so3()  # built through the Jacobi gate, which raises on failure
    with pytest.raises(JacobiError) as info:
        PoissonStructure(nonjacobi3())
    i, j, k, jac = info.value.witness
    assert (i, j, k) == (0, 1, 2)
    assert jac == Poly.constant(3, 1)
    ok(1, "Jacobi gate (so(3) passes, y Dx^Dy + Dy^Dz fails with jacobiator 1)")


# ----------------------------------------------------------------------
# 2. Modular fields


def test_c2_modular_fields():
    mu = VolumeForm()
    cases = [
        (symplectic2(), {0: p2("0"), 1: p2("0")}),
        (quadratic2(), {0: p2("-x"), 1: p2("y")}),
    ]
    for structure, expected in cases:
        n = structure.nvars
        phi = structure.modular_vector_field(mu)
        for i in range(n):
            assert phi.evaluate(Poly.variable(n, i)) == expected[i]
        mu_form = mu.form(n)
        # contraction definition, exactly
        assert structure.koszul_differential(mu_form) == interior_product(phi, mu_form)
        # Lie-derivative definition on all coordinates, exactly
        for i in range(n):
            x_i = Poly.variable(n, i)
            assert lie_derivative(structure.hamiltonian(x_i), mu_form) == (
                mu_form.scale(phi.evaluate(x_i))
            )
        assert structure.poisson_field_defect(phi) is None
    ok(2, "modular fields satisfy both defining equations and are Poisson")


# ----------------------------------------------------------------------
# 3. Identity suite


def test_c3_identity_suite():
    # >= 100 seeded instances over n <= 3, rank <= 2, coefficient degree <= 4
    rng = random.Random(20260810)
    mu = VolumeForm()
    pool = []
    for structure, module in [
        (symplectic2(), PoissonModule.trivial(2, 1)),
        (symplectic2(), symplectic_rank2(symplectic2())),
        (quadratic2(), quadratic_rank2(quadratic2())),
        (so3(), PoissonModule.trivial(3, 2)),
        (so3(), so3_rank2(so3())),
        (zero2(), PoissonModule.trivial(2, 2)),
    ]:
        phi = structure.modular_vector_field(mu)
        pool.append((structure, module, phi, twist(module, structure, phi)))

    failures = 0
    instances = 120
    for trial in range(instances):
        structure, module, phi, twisted = pool[trial % len(pool)]
        n, r = structure.nvars, module.rank
        k = rng.randint(0, n)
        q = rng.randint(0, n)
        omega = rand_form(rng, n, q)
        X = rand_cochain_element(rng, n, k, r)
        y = rand_chain_element(rng, n, q, r)

        checks = []
        # d^2 = 0
        checks.append(omega.d().d().is_zero())
        # scalar Koszul differential squares to zero
        checks.append(
            structure.koszul_differential(structure.koszul_differential(omega)).is_zero()
        )
        # module differentials square to zero
        checks.append(
            chain_differential(structure, module, chain_differential(structure, module, y)).is_zero()
        )
        checks.append(
            cochain_differential(
                structure, module, cochain_differential(structure, module, X)
            ).is_zero()
        )
        # iota_X bnd - (-1)^k bnd^W iota_X = iota_{delta_W X}
        lhs = interior_product(X, structure.koszul_differential(omega)) - (
            chain_differential(structure, module, interior_product(X, omega)).scale((-1) ** k)
        )
        rhs = interior_product(cochain_differential(structure, module, X), omega)
        checks.append(lhs == rhs)
        # iota_X iota_Y = (-1)^{k l} (id (x) iota_Y) iota_X
        l = rng.randint(0, n)
        Yv = rand_multivector(rng, n, l)
        lhs2 = interior_product(X, interior_product(Yv, omega))
        inner = interior_product(X, omega)
        rhs2 = ModuleChainElement(
            [interior_product(Yv, c) for c in inner.components]
        ).scale((-1) ** (k * l))
        checks.append(lhs2 == rhs2)
        # twisted cochain differential: delta_{W_phi} = delta_W - (phi ^ -)
        correction = ModuleCochainElement([phi.wedge(c) for c in X.components])
        checks.append(
            cochain_differential(structure, twisted, X)
            == cochain_differential(structure, module, X) - correction
        )
        # twisted chain differential: bnd^{W_phi} = bnd^W + id (x) iota_phi
        correction2 = ModuleChainElement([interior_product(phi, c) for c in y.components])
        checks.append(
            chain_differential(structure, twisted, y)
            == chain_differential(structure, module, y) + correction2
        )
        if not all(checks):
            failures += 1
    assert failures == 0
    ok(3, f"identity suite: {instances} seeded instances, zero failures")


# ----------------------------------------------------------------------
# 4 and 5. Chain-level duality and Betti duality


@pytest.fixture(scope="module")
def duality_reports():
    """One verify_duality run per catalog entry, shared by criteria 4 and 5."""
    reports = {}
    for label, structure, module, mu in chain_catalog():
        cap = 8 if structure.nvars == 2 else 6
        reports[label] = (
            structure, module,
            verify_duality(structure, module, mu, max_weight=cap, trials=0, seed=0),
        )
    for label, structure, module, mu, cap in graded_catalog():
        if label in reports:
            continue
        reports[label] = (
            structure, module,
            verify_duality(structure, module, mu, max_weight=cap, trials=0, seed=0),
        )
    return reports


def test_c4_chain_level_duality(duality_reports):
    seen = 0
    for label, structure, module, mu in chain_catalog():
        _, _, report = duality_reports[label]
        assert report.diagram_ok, f"{label}: {report.diagram_failures[:2]}"
        # coverage: every monomial basis element up to weight 6, all degrees
        n = structure.nvars
        expected = sum(
            len(slice_basis(module, "cochain", k, w))
            for k in range(n + 1)
            for w in range(-k, 7)
        )
        assert report.diagram_total >= expected > 0
        seen += 1
    assert seen == 9
    ok(4, "chain-level duality on all 9 catalog pairs up to weight 6, exact")


def test_c5_betti_duality(duality_reports):
    for label, structure, module, mu, cap in graded_catalog():
        _, _, report = duality_reports[label]
        assert report.graded, label
        assert report.max_weight >= cap
        assert report.betti_pairs, label
        assert report.betti_ok, f"{label}: unequal Betti pairs"
        for pair in report.betti_pairs:
            assert pair["homology_degree"] == structure.nvars - pair["degree"]
            assert pair["homology_weight"] == pair["weight"] + structure.nvars
    ok(5, "Betti duality HP^k(W)_w = HP_(n-k)(W_(-phi))_(w+n) on all graded pairs")


# ----------------------------------------------------------------------
# 6. Symplectic sanity


def test_c6_symplectic_sanity():
    structure = symplectic2()
    module = PoissonModule.trivial(2, 1)
    table = betti_table(structure, module, "cohomology", 8)
    assert {w: dim for (k, w), dim in table.entries.items() if k == 0 and dim} == {0: 1}
    for (k, w), dim in table.entries.items():
        if k in (1, 2):
            assert dim == 0, (k, w)
    chains, cochains = Grading(structure, module, "chain"), Grading(structure, module, "cochain")
    for k in range(3):
        for w in range(-2, 9):
            assert betti(chains, 2 - k, w + 2) == betti(cochains, k, w)
    ok(6, "symplectic R^2: HP^0 = constants, HP^1 = HP^2 = 0, shifted duality")


# ----------------------------------------------------------------------
# 7. The canonical top-form connection theorem


def test_c7_elw_theorem():
    mu = VolumeForm()
    for structure in (symplectic2(), quadratic2(), so3()):
        phi = structure.modular_vector_field(mu)
        built = elw_connection(structure, mu)
        twisted = twist(PoissonModule.trivial(structure.nvars, 1), structure, phi)
        assert built.brackets == twisted.brackets  # matrix-exact
    structure = quadratic2()
    elw = elw_connection(structure, mu)
    trivial = PoissonModule.trivial(2, 1)
    cochains, chains = Grading(structure, elw, "cochain"), Grading(structure, trivial, "chain")
    for k in range(3):
        for w in range(-k, 9):
            lhs = betti(cochains, k, w)
            rhs = betti(chains, 2 - k, w + 2)
            assert lhs == rhs, (k, w, lhs, rhs)
    ok(7, "top-form connection equals the modular twist; its cohomology is "
          "the untwisted homology")


# ----------------------------------------------------------------------
# 8. Degenerate structure


def test_c8_zero_structure():
    structure = zero2()
    module = PoissonModule.trivial(2, 2)
    rng = random.Random(8)
    for _ in range(25):
        k = rng.randint(0, 2)
        assert cochain_differential(
            structure, module, rand_cochain_element(rng, 2, k, 2)
        ).is_zero()
        assert chain_differential(
            structure, module, rand_chain_element(rng, 2, k, 2)
        ).is_zero()
    cochains, chains = Grading(structure, module, "cochain"), Grading(structure, module, "chain")
    for k in range(3):
        for p in range(5):
            expected = 2 * math.comb(2, k) * math.comb(p + 1, 1)
            assert betti(cochains, k, p - k) == expected
            assert betti(chains, k, p + k) == expected
    ok(8, "zero bivector: vanishing differentials, Betti = slice dimensions")


# ----------------------------------------------------------------------
# 9. CLI determinism


def test_c9_cli_determinism():
    args = [
        sys.executable, "-m", "poishom.cli", "duality",
        str(PROBLEMS / "quadratic.json"),
        "--max-weight", "6", "--trials", "100", "--seed", "7", "--format", "json",
    ]
    # the child finds the package however the suite was started
    src = str(PROBLEMS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    runs = []
    for _ in range(2):
        result = subprocess.run(args, capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        runs.append(json.loads(result.stdout))
    for payload in runs:
        payload.pop("generated_at")
        assert payload["results"]["duality"]["ok"] is True
    first, second = (json.dumps(r, sort_keys=True).encode() for r in runs)
    assert first == second  # byte-identical bodies, timestamps excluded
    ok(9, "CLI duality run is deterministic for a fixed seed and exits 0")
