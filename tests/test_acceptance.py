"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to stream them)
and asserts the criterion, including its runtime cap where one is
stated. Criteria 3-5 share one cached sweep of the nine-point
(U, L) grid with three seeded parameter draws per point.
"""

import cmath
import math
import time

import pytest

from zetacross.critline import (
    LadderModel,
    base_segment,
    build_mother_instance,
)
from zetacross.equations import (
    TRANSMUTATION_IDS,
    make_transmutation,
    second_generation,
)
from zetacross.errors import SearchError
from zetacross.levelset import (
    RESIDUAL_TOL,
    LevelCurveSpec,
    LevelFamily,
    build_level_assignments,
    level_point,
)
from zetacross.params import SplitMix64, draw_parameter_set
from zetacross.specfun import (
    bessel_j,
    elliptic_k,
    log_gamma_complex,
    zeta_mod_sq,
)
from zetacross.specfun.jacobi import pole_distance, sncndn_complex

from oracles import crossbreeding_property_residuals, zeta_mod_sq_oracle

GRID_U = (math.pi / 16, math.pi / 8, math.pi / 5)
GRID_L = (20, 100, 500)
SEED = 20240809
N_DRAWS = 3
LADDER = LadderModel("ASYMPTOTIC")
SWAP_LADDER = LadderModel("AFFINE", 2.0)


def gamma_complex(z: complex | float) -> complex:
    return cmath.exp(log_gamma_complex(z))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def grid_instances():
    """The nine grid instances under both ladders, with the build
    time of the default-ladder sweep (criterion 3's runtime budget)."""
    sweep = {}
    timing = {}
    for ladder_name, ladder in (("default", LADDER), ("swap", SWAP_LADDER)):
        t0 = time.perf_counter()
        entries = [
            (U, L, build_mother_instance(U, L, ladder, "EXACT"))
            for U in GRID_U for L in GRID_L
        ]
        timing[ladder_name] = time.perf_counter() - t0
        sweep[ladder_name] = entries
    return sweep, timing


@pytest.fixture(scope="module")
def grid_sweep(grid_instances):
    """Assignments, transmutations and equations for three seeded draws
    per grid point, under both ladders."""
    instances, _timing = grid_instances
    sweep = {}
    for ladder_name, entries in instances.items():
        rows = []
        for (U, L, inst) in entries:
            draws = []
            for i in range(N_DRAWS):
                params = draw_parameter_set(SEED, i)
                assign = build_level_assignments(inst, params)
                trans = {
                    tid: make_transmutation(tid, inst, assign)
                    for tid in TRANSMUTATION_IDS
                }
                eqs = second_generation(inst, assign)
                draws.append((params, assign, trans, eqs))
            rows.append((U, L, inst, draws))
        sweep[ladder_name] = rows
    return sweep


def test_criterion_1_special_function_identities():
    t0 = time.perf_counter()
    gen = SplitMix64(101)
    worst_jac = 0.0
    count = 0
    while count < 10000:
        k = math.sqrt(0.01 + 0.98 * gen.next_unit())
        kp = math.sqrt(1.0 - k * k)
        big_k = elliptic_k(k)
        big_kp = elliptic_k(kp)
        u = complex(4.0 * big_k * gen.next_unit(), 2.0 * big_kp * gen.next_unit())
        if pole_distance(u, k) < 1e-3:
            continue
        sn, cn, dn = sncndn_complex(u, k)
        scale = max(1.0, abs(sn) ** 2)
        worst_jac = max(
            worst_jac,
            abs(sn * sn + cn * cn - 1.0) / scale,
            abs(dn * dn + k * k * sn * sn - 1.0) / scale,
        )
        count += 1

    worst_gamma = 0.0
    count = 0
    while count < 1000:
        s = complex(-20.0 + 40.0 * gen.next_unit(), -20.0 + 40.0 * gen.next_unit())
        if abs(s) > 20.0:
            continue
        n = round(s.real)
        if (n <= 0 and abs(s - n) < 1e-3) or abs(s - (round(s.real - 1.0) + 1.0)) < 1e-3:
            continue
        g = gamma_complex(s)
        g1 = gamma_complex(s + 1.0)
        worst_gamma = max(worst_gamma, abs(g1 - s * g) / abs(g1))
        refl = g * gamma_complex(1.0 - s) * cmath.sin(math.pi * s) / math.pi
        worst_gamma = max(worst_gamma, abs(refl - 1.0))
        count += 1

    worst_bessel = 0.0
    parity_exact = True
    for _ in range(1000):
        p = 1 + gen.next_u64() % 8
        r = 0.1 + 29.9 * gen.next_unit()
        phi = 2.0 * math.pi * gen.next_unit()
        s = complex(r * math.cos(phi), r * math.sin(phi))
        lhs = bessel_j(p - 1, s) + bessel_j(p + 1, s)
        rhs = (2.0 * p / s) * bessel_j(p, s)
        worst_bessel = max(worst_bessel, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
        parity_exact = parity_exact and (
            bessel_j(-p, s) == (-1) ** p * bessel_j(p, s)
        )

    elapsed = time.perf_counter() - t0
    ok = (worst_jac <= 1e-10 and worst_gamma <= 1e-10
          and worst_bessel <= 1e-9 and parity_exact and elapsed <= 60.0)
    _report(
        "criterion 1 (special-function identities)", ok,
        f"jacobi {worst_jac:.2e} <= 1e-10, gamma {worst_gamma:.2e} <= 1e-10, "
        f"bessel {worst_bessel:.2e} <= 1e-9, parity exact: {parity_exact}, "
        f"{elapsed:.1f} s <= 60 s",
    )
    assert ok


def test_criterion_2_critical_line_cross_validation():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        t = 1.0 + 99.0 * i / 999.0
        ref = zeta_mod_sq_oracle(t)
        got = zeta_mod_sq(t)
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    _report(
        "criterion 2 (critical-line cross-validation)", ok,
        f"worst relative deviation {worst:.2e} <= 1e-8 over 1000 points, "
        f"{elapsed:.1f} s",
    )
    assert ok


def test_criterion_3_mother_formula_grid(grid_instances):
    instances, timing = grid_instances
    worst_identity = 0.0
    worst_theta = 0.0
    contained = True
    for (U, L, inst) in instances["default"]:
        worst_identity = max(worst_identity, inst.identity_residual / inst.max_a)
        worst_theta = max(worst_theta, abs(inst.theta - 1.0))
        base = base_segment(U, L)
        contained = contained and all(
            base.lo < a0 < base.hi for a0 in inst.alpha0
        )
    elapsed = timing["default"]
    ok = (worst_identity <= 1e-8 and worst_theta <= 1e-8
          and contained and elapsed <= 300.0)
    _report(
        "criterion 3 (mother formula, grid)", ok,
        f"identity {worst_identity:.2e} <= 1e-8, |theta-1| {worst_theta:.2e} "
        f"<= 1e-8, containment: {contained}, grid built in {elapsed:.1f} s "
        f"<= 300 s",
    )
    assert ok


def test_criterion_4_transmutation_certification(grid_sweep):
    worst = 0.0
    n_instances = 0
    for (_U, _L, inst, draws) in grid_sweep["default"]:
        for (_params, _assign, trans, _eqs) in draws:
            for tid in TRANSMUTATION_IDS:
                t = trans[tid]
                n_instances += 1
                for l in range(3):
                    worst = max(worst, abs(t.b[l] - inst.a[l]) / inst.a[l])
    ok = worst <= 1e-8 and n_instances == 135
    _report(
        "criterion 4 (transmutation term equality)", ok,
        f"worst |b - a|/a = {worst:.2e} <= 1e-8 over {n_instances} instances",
    )
    assert ok


def test_criterion_5_theorem_certification(grid_sweep):
    worst = 0.0
    n_eqs = 0
    worst_swap = 0.0
    for entry_a, entry_b in zip(grid_sweep["default"], grid_sweep["swap"]):
        for (draw_a, draw_b) in zip(entry_a[3], entry_b[3]):
            eqs_a, eqs_b = draw_a[3], draw_b[3]
            for ea, eb in zip(eqs_a, eqs_b):
                n_eqs += 1
                worst = max(worst, ea.residual)
                worst_swap = max(worst_swap, abs(ea.residual - eb.residual))
    ok = worst <= 1e-8 and worst_swap <= 1e-10 and n_eqs == 270
    _report(
        "criterion 5 (ten exact equations + elimination invariance)", ok,
        f"worst residual {worst:.2e} <= 1e-8 over {n_eqs} equations, "
        f"ladder-swap change {worst_swap:.2e} <= 1e-10",
    )
    assert ok


def test_level_points_against_mpmath(grid_sweep):
    # every level point of the sweep, under both ladders, re-evaluated in
    # 30-digit arithmetic meets the bound it was certified to
    mpmath = pytest.importorskip("mpmath")
    jacobi = {"SN": "sn", "CN": "cn", "DN": "dn"}
    modulus = {
        "COSINE": lambda fam, s: mpmath.cos(s),
        "POWER": lambda fam, s: abs(s) ** fam.n,
        "RECIP_GAMMA": lambda fam, s: mpmath.rgamma(s),
        "BESSEL": lambda fam, s: mpmath.besselj(fam.p, s),
        "JACOBI": lambda fam, s: mpmath.ellipfun(
            jacobi[fam.jacobi_kind], s, m=mpmath.mpf(fam.modulus.k) ** 2),
    }
    worst = 0.0
    n_points = 0
    with mpmath.workdps(30):
        for (_U, _L, _inst, draws) in grid_sweep["default"] + grid_sweep["swap"]:
            for (_params, assign, _trans, _eqs) in draws:
                for p in assign.points.values():
                    fam, v = p.spec.family, p.spec.target
                    ref = abs(modulus[fam.kind](fam, mpmath.mpc(p.s.re, p.s.im)))
                    worst = max(worst, float(abs(ref - v)) / max(1.0, v))
                    n_points += 1
    ok = worst <= RESIDUAL_TOL and n_points == 1620
    _report(
        "level points (mpmath re-evaluation)", ok,
        f"worst ||F(s)| - v| / max(1, v) = {worst:.2e} <= {RESIDUAL_TOL:.0e} "
        f"over {n_points} points",
    )
    assert ok


def test_criterion_6_generic_crossbreeding_property():
    t0 = time.perf_counter()
    res = crossbreeding_property_residuals(100000)
    elapsed = time.perf_counter() - t0
    ok = float(res.max()) <= 1e-12 and elapsed <= 5.0
    _report(
        "criterion 6 (generic elimination identity)", ok,
        f"worst residual {float(res.max()):.2e} <= 1e-12 over 1e5 triples, "
        f"{elapsed:.2f} s <= 5 s",
    )
    assert ok


def test_criterion_7_level_solver_certification():
    families = [
        LevelFamily.cosine(),
        LevelFamily.power(2),
        LevelFamily.recip_gamma(),
        LevelFamily.bessel(0),
        LevelFamily.jacobi("SN", 0.6),
        LevelFamily.jacobi("CN", 0.6),
        LevelFamily.jacobi("DN", 0.6),
    ]
    slot_by_kind = {"COSINE": 8, "POWER": 9, "RECIP_GAMMA": 10,
                    "BESSEL": 11, "JACOBI": 12}
    gen = SplitMix64(314159)
    total = solved = typed = 0
    identical = True
    worst = 0.0
    for fam in families:
        l = {"SN": 1, "CN": 2, "DN": 3}.get(fam.jacobi_kind or "SN", 1)
        for _ in range(100):
            v = 10.0 ** (-3.0 + 6.0 * gen.next_unit())
            spec = LevelCurveSpec(fam, v, (slot_by_kind[fam.kind], l))
            total += 1
            try:
                a = level_point(spec)
                b = level_point(spec)
            except SearchError:
                typed += 1
                continue
            solved += 1
            identical = identical and (a.s.re, a.s.im, a.residual) == (
                b.s.re, b.s.im, b.residual)
            worst = max(worst, a.residual / max(1.0, v))
    ok = (solved + typed == total) and identical and worst <= 1e-10
    _report(
        "criterion 7 (level solver certification)", ok,
        f"{solved} solved + {typed} typed errors of {total}, worst residual "
        f"{worst:.2e} <= 1e-10, reruns identical: {identical}",
    )
    assert ok
