"""Output checks, run outside the timed region.

``recheck`` re-derives every certificate of one op from the numbers its
payload records, instead of trusting the ``certified`` flag. ``oracle``
re-evaluates a sampled op with mpmath, which plays no part in the
program: the level-point moduli |F(s)| against their targets (to the
run's ``level_res`` times max(1, target), the bound the points are
certified to), the placements Z(alpha1)^2 f_l(phi1(alpha1)) against a_l
and each transmutation's terms rebuilt from those moduli against a_l
(both to ``eq_res``, the bound the identities built on a_l are certified
to).
"""

from __future__ import annotations

EULER_GAMMA = "0.57721566490153286060651209008240243104215933593992"
PLACEMENT_TOL = 1e-10  # the crossing certificate of mean_value_abscissa
N_SLOTS = 30
# (first-, second-generation slot) per transmutation, restated so the
# checks do not read the program's own table
TRANSMUTATION_SLOTS = {"T1": (3, 8), "T2": (4, 9), "T3": (5, 10),
                       "T4": (6, 11), "T5": (7, 12)}


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def recheck(entry: dict) -> list[str]:
    """Problems found in one op's recorded residuals, against its bounds."""
    b = entry["bounds"]
    m = entry["mother"]
    a = m["a"]
    out = []
    if abs(a[0] - a[1] + a[2]) > 1e-8 * max(a):
        out.append(f"mother identity |a1 - a2 + a3| = {abs(a[0] - a[1] + a[2]):.3e}")
    if abs(m["theta"] - 1.0) > 1e-8:
        out.append(f"theta {m['theta']!r} not within 1e-8 of 1")
    if any(m["mean_flags"]):
        out.append("a mean-value flag is raised")
    if max(m["placement_residual"]) > PLACEMENT_TOL:
        out.append(f"placement residual {max(m['placement_residual']):.3e}")
    if m["additivity_residual"] > 10.0 * b["quad_rel"]:
        out.append(f"additivity residual {m['additivity_residual']:.3e}")
    points = entry["level_points"]
    if sorted(tuple(p["slot"]) for p in points) != sorted(
            (n, l) for n in range(3, 13) for l in (1, 2, 3)):
        out.append(f"level points do not fill the {N_SLOTS} slots")
    for p in points:
        if p["residual"] > b["level_res"] * max(1.0, p["target"]):
            out.append(f"level point {p['slot']} residual {p['residual']:.3e}")
    trans = entry["transmutations"]
    if sorted(t["id"] for t in trans) != sorted(TRANSMUTATION_SLOTS):
        out.append("transmutations T1..T5 not all present")
    for t in trans:
        for l in range(3):
            r = _rel(t["b"][l], a[l])
            if r > b["eq_res"]:
                out.append(f"{t['id']} term l={l + 1}: |b - a| / a = {r:.3e}")
        if t["three_term_residual"] > b["eq_res"]:
            out.append(f"{t['id']} three-term residual {t['three_term_residual']:.3e}")
    eqs = entry["meta_equations"]
    if len({e["label"] for e in eqs}) != 10:
        out.append(f"{len(eqs)} crossbred equations, not 10 distinct")
    for e in eqs:
        r = abs(e["lhs"] - e["rhs"]) / max(e["lhs"], e["rhs"])
        if max(r, e["residual"]) > b["eq_res"]:
            out.append(f"equation {e['label']} residual {max(r, e['residual']):.3e}")
    return out


def _family_modulus(mp, n: int, l: int, params: dict, s):
    """|F(s)| for the family of slot (n, l); first-generation slots
    (n <= 7) read parameter index l - 1, second-generation l + 2."""
    idx = (l - 1) if n <= 7 else (l + 2)
    kind = n if n <= 7 else n - 5
    if kind == 3:
        return abs(mp.cos(s))
    if kind == 4:
        return abs(s) ** params["n"][idx]
    if kind == 5:
        return abs(mp.rgamma(s))
    if kind == 6:
        return abs(mp.besselj(params["p"][idx], s))
    k = mp.mpf(params["k"][idx])
    return abs(mp.ellipfun(("sn", "cn", "dn")[l - 1], s, m=k * k))


def oracle(entry: dict) -> list[str]:
    """Problems found by re-evaluating one op with mpmath."""
    import mpmath

    mp = mpmath.mp
    out = []
    b = entry["bounds"]
    m = entry["mother"]
    with mp.workdps(30):
        gamma = mp.mpf(EULER_GAMMA)
        weights = (lambda x: mp.sin(x) ** 2, lambda x: mp.cos(x) ** 2,
                   lambda x: mp.cos(2 * x))
        for l in range(3):
            a1 = mp.mpf(m["alpha1"][l])
            phi1 = a1 - (1 - gamma) * a1 / mp.log(a1)  # default asymptotic ladder
            placed = mp.siegelz(a1) ** 2 * weights[l](phi1)
            r = float(abs(placed - m["a"][l]) / m["a"][l])
            if r > b["eq_res"]:
                out.append(f"placement l={l + 1}: Z^2 f / a - 1 = {r:.3e}")
        moduli = {}
        for p in entry["level_points"]:
            n, l = p["slot"]
            if n <= 7:
                x = mp.mpf(m["alpha0"][l - 1])
                target = abs((mp.sin(x), mp.cos(x), mp.cos(2 * x))[l - 1])
            else:
                target = mp.mpf(m["c"][l - 1])
            value = _family_modulus(mp, n, l, entry["params"], mp.mpc(p["re"], p["im"]))
            moduli[(n, l)] = value
            r = float(abs(value - target) / max(1, target))
            if r > b["level_res"]:
                out.append(f"level point {p['slot']}: ||F(s)| - v| / max(1, v) = {r:.3e}")
        for tid, (n1, n2) in TRANSMUTATION_SLOTS.items():
            for l in (1, 2, 3):
                w1, w2 = moduli[(n1, l)], moduli[(n2, l)]
                term = (w1 if l == 3 else w1 * w1) * w2 * w2
                r = float(abs(term - m["a"][l - 1]) / m["a"][l - 1])
                if r > b["eq_res"]:
                    out.append(f"{tid} term l={l} from oracle moduli: {r:.3e}")
    return out
