"""In-memory span recorder for the traced benchmark run.

Every public function of the ``zetacross`` package is replaced, at each
module attribute that binds it, by a wrapper that records one span per
call: name, start, end, parent span and the benchmark op it belongs to.
Spans live in flat arrays while the run lasts and are written out once,
at the end, as an ``.npz`` file.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

# Leaf value helpers: called many times per Z evaluation, they mark no
# layer boundary, so their time stays in the caller's self time.
LEAF_HELPERS = frozenset({
    "as_complex", "bernoulli", "bernoulli_over_factorial", "neumaier_sum",
    "neumaier_sum_complex",
})

LEVEL_FAMILIES = ("cosine", "power", "recip_gamma", "bessel", "jacobi")
BESSEL_SERIES_RADIUS = 8.0  # |s| at or below which bessel_j sums its series


def _bessel_tag(args: tuple) -> int:
    return int(abs(complex(args[1])) <= BESSEL_SERIES_RADIUS)


def _level_point_tag(args: tuple) -> int:
    """Family index from the spec's slot (n, l): n = 3..7 and 8..12 both
    run cosine, power, 1/gamma, Bessel, Jacobi in that order."""
    return (args[0].slot[0] - 3) % len(LEVEL_FAMILIES)


# span name -> function of the call's positional arguments giving an int tag
TAGGERS = {
    "specfun.bessel.bessel_j": _bessel_tag,
    "levelset.level_point": _level_point_tag,
}

class Tracer:
    """Records spans; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.current_op = -1  # spans outside the timed ops (set-up, warm-up)

    def _wrap(self, fn: types.FunctionType, span_name: str):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        tagger = TAGGERS.get(span_name)
        name, parent, op, tag = self.name, self.parent, self.op, self.tag
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            tag.append(tagger(args) if tagger else 0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> int:
        """Wrap every public package function at every binding; returns
        the number of distinct functions wrapped."""
        package = "zetacross"
        wrapped: dict[int, object] = {}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__ or ""
                if not (owner == package or owner.startswith(package + ".")):
                    continue
                if value.__name__.startswith("_") or value.__name__ in LEAF_HELPERS:
                    continue
                if id(value) not in wrapped:
                    short = owner[len(package) + 1:] if owner != package else package
                    wrapped[id(value)] = self._wrap(value, f"{short}.{value.__name__}")
                setattr(module, attr, wrapped[id(value)])
        return len(wrapped)

    def repair(self, since: int = 0) -> None:
        """Close spans (from index ``since``) left open when an op was
        stopped mid-call.

        The deadline exception can land between the appends of a
        wrapper, so arrays are cut to a common length, the call stack is
        reset and open spans end now.
        """
        now = time.perf_counter_ns()
        n = min(len(a) for a in (self.name, self.parent, self.op, self.tag,
                                 self.start, self.end))
        for a in (self.name, self.parent, self.op, self.tag, self.start, self.end):
            del a[n:]
        for i in range(since, n):
            if self.end[i] == 0:
                self.end[i] = now
        del self._stack[1:]

    def arrays(self) -> dict[str, np.ndarray]:
        self.repair()
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }


def nearest_marked(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Index of each span's nearest marked ancestor-or-self, or -1.

    Pointer jumping; parents always precede their children.
    """
    idx = np.arange(len(parent))
    found = np.where(marked, idx, -1)
    ptr = np.where(marked, -1, parent)
    while True:
        act = np.nonzero((found < 0) & (ptr >= 0))[0]
        if act.size == 0:
            return found
        j = ptr[act]
        fj = found[j]
        found[act] = fj
        ptr[act] = np.where(fj >= 0, -1, ptr[j])


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 where the layer did no work on this workload."""
    return float(num) / float(den) if den else 0.0


def layer_metrics(names: list[str], data: dict[str, np.ndarray],
                  complete_ops: list[int]) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures from the spans, and reconciliation problems.

    Counts and times are per completed op (ops stopped at their deadline
    are left out, since they stop part-way), except
    ``numerics.quad.max_panels``, which is the largest single quadrature
    of the whole run and so shows the runaway calls too.
    """
    nid = {n: i for i, n in enumerate(names)}
    name, parent, op, tag = data["name"], data["parent"], data["op"], data["tag"]
    dur = (data["end_ns"] - data["start_ns"]) * 1e-9
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=len(dur))
    self_t = dur - child
    keep = np.isin(op, np.asarray(complete_ops, dtype=np.int32))
    n_ops = len(complete_ops)

    def is_(*span_names: str) -> np.ndarray:
        ids = [nid[s] for s in span_names if s in nid]
        return np.isin(name, ids)

    def under(*span_names: str) -> np.ndarray:
        """Nearest ancestor-or-self among span_names (index or -1)."""
        return nearest_marked(parent, is_(*span_names))

    em, rs = is_("specfun.zeta.hardy_z_em") & keep, is_("specfun.zeta.hardy_z_rs") & keep
    n_em, n_rs = int(em.sum()), int(rs.sum())
    zeta_spans = is_(*(n for n in names if n.startswith("specfun.zeta."))) & keep
    branch = under("specfun.zeta.hardy_z_em", "specfun.zeta.hardy_z_rs")
    branch_name = np.where(branch >= 0, name[np.maximum(branch, 0)], -1)
    em_self = self_t[zeta_spans & (branch_name == nid.get("specfun.zeta.hardy_z_em", -2))].sum()
    rs_self = self_t[zeta_spans & (branch_name == nid.get("specfun.zeta.hardy_z_rs", -2))].sum()

    inst = is_("critline.build_mother_instance") & keep
    n_inst = int(inst.sum())
    z = em | rs
    stage_of = under("critline.weighted_mean", "critline.mean_value_abscissa",
                     "critline.build_mother_instance")
    stage_name = np.where(stage_of >= 0, name[np.maximum(stage_of, 0)], -1)
    z_stage = {
        key: int((z & (stage_name == nid.get(span, -2))).sum())
        for key, span in (("means", "critline.weighted_mean"),
                          ("crossings", "critline.mean_value_abscissa"),
                          ("other", "critline.build_mother_instance"))
    }
    z_outside = int((z & (stage_of < 0)).sum())

    quad_all = is_("numerics.adaptive_quadrature")
    quad = quad_all & keep
    panel = is_("numerics.gk15_panel")
    panels_by_call = np.bincount(parent[panel & (parent >= 0)], minlength=len(name))
    max_panels = int(panels_by_call[quad_all].max()) if quad_all.any() else 0

    bessel = is_("specfun.bessel.bessel_j")
    outer_bessel = bessel & keep & ~np.isin(parent, np.nonzero(bessel)[0])
    n_bessel = int(outer_bessel.sum())
    jac = is_("specfun.jacobi.jacobi_elliptic") & keep
    rga = is_("specfun.gammafn.recip_gamma_abs") & keep
    lgc = is_("specfun.gammafn.log_gamma_complex") & keep
    point = is_("levelset.level_point") & keep
    n_point = int(point.sum())
    in_point = (under("levelset.level_point") >= 0)
    trans = is_("equations.make_transmutation") & keep
    n_trans = int(trans.sum())

    def total(mask: np.ndarray) -> float:
        return float(dur[mask].sum())

    m = {
        "zeta.em.calls": _ratio(n_em, n_ops),
        "zeta.em.us_per_call": 1e6 * _ratio(total(em), n_em),
        "zeta.em.self_s": _ratio(em_self, n_ops),
        "zeta.rs.calls": _ratio(n_rs, n_ops),
        "zeta.rs.us_per_call": 1e6 * _ratio(total(rs), n_rs),
        "zeta.rs.self_s": _ratio(rs_self, n_ops),
        "critline.z_calls_per_instance": _ratio(n_em + n_rs, n_inst),
        "critline.z_calls.means": _ratio(z_stage["means"], n_inst),
        "critline.z_calls.crossings": _ratio(z_stage["crossings"], n_inst),
        "critline.z_calls.other": _ratio(z_stage["other"], n_inst),
        "critline.lift_s": _ratio(total(is_("critline.reverse_iterate") & keep), n_inst),
        "critline.means_s": _ratio(total(is_("critline.weighted_mean") & keep), n_inst),
        "critline.crossings_s": _ratio(
            total(is_("critline.mean_value_abscissa") & keep), n_inst),
        "critline.crossing_attempts_per_instance": _ratio(
            int((is_("critline.mean_value_abscissa") & keep).sum()), n_inst),
        "numerics.quad.calls": _ratio(int(quad.sum()), n_ops),
        "numerics.quad.panels_per_call": _ratio(int(panels_by_call[quad].sum()),
                                                int(quad.sum())),
        "numerics.quad.max_panels": float(max_panels),
        "numerics.bisect.calls": _ratio(int((is_("numerics.bisect_root") & keep).sum()),
                                        n_ops),
        "bessel.calls": _ratio(n_bessel, n_ops),
        "bessel.us_per_call": 1e6 * _ratio(total(outer_bessel), n_bessel),
        "bessel.series_share": _ratio(int((outer_bessel & (tag == 1)).sum()), n_bessel),
        "jacobi.calls": _ratio(int(jac.sum()), n_ops),
        "jacobi.us_per_call": 1e6 * _ratio(total(jac), int(jac.sum())),
        "gammafn.recip_gamma_abs.us_per_call": 1e6 * _ratio(total(rga), int(rga.sum())),
        "gammafn.log_gamma_complex.calls": _ratio(int(lgc.sum()), n_ops),
    }
    for i, fam in enumerate(LEVEL_FAMILIES):
        sel = point & (tag == i)
        m[f"levelset.point.{fam}.calls"] = _ratio(int(sel.sum()), n_ops)
        m[f"levelset.point.{fam}.ms_per_call"] = 1e3 * _ratio(total(sel), int(sel.sum()))
    m["levelset.bessel_calls_per_point"] = _ratio(int((outer_bessel & in_point).sum()),
                                                  n_point)
    m["levelset.assign_s"] = _ratio(total(is_("levelset.build_level_assignments") & keep),
                                    n_ops)
    m["equations.transmutation_calls_per_op"] = _ratio(n_trans, n_ops)
    m["equations.transmutation_useful_ratio"] = _ratio(5 * n_ops, n_trans)
    m["harness.report_self_s"] = _ratio(float(self_t[is_("harness.run") & keep].sum()),
                                        n_ops)

    problems = []
    if sum(z_stage.values()) != n_em + n_rs:
        problems.append(f"Z calls by stage {z_stage} do not sum to em {n_em} + rs "
                        f"{n_rs} ({z_outside} outside any mother instance)")
    assigning = np.unique(op[is_("levelset.build_level_assignments") & keep])
    per_op_points = np.bincount(op[point], minlength=int(op.max(initial=0)) + 1)
    bad = [int(o) for o in assigning if per_op_points[o] != 30]
    if bad:
        problems.append(f"ops {bad[:5]} did not make 30 level_point calls")
    return m, problems
