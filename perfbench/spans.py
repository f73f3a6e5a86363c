"""Spans around symprod's layer boundaries, installed from outside the
package for the traced run.

Each wrapped function records a span: boundary, start, end, parent span,
request id, and counts read from its arguments and result.  Spans stay in
memory; ``Recorder.metrics`` turns them into the per-layer numbers.

A function is rebound everywhere it is reachable: in its defining module,
in every other symprod module that imported it by name (for example
``numberfield.factor_unipoly`` or ``dynamics.symmetrize``), and, for
methods, on the class under every attribute name that refers to it
(``MPoly.__mul__`` is also ``__rmul__``).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# boundary name -> per-layer metrics reported for it.  The boundary name is
# <module>.<function> or <module>.<Class>.<method>; "mul" is __mul__.
METRICS = {
    "polyfactor.factor_unipoly": ("calls", "busy_s", "deg_max", "deg_sum",
                                  "useful_frac"),
    "polyfactor.squarefree_decomposition": ("busy_s",),
    "symmetric.symmetrize": ("calls", "misses", "busy_s"),
    "symmetric.conjugate_points": ("calls", "self_s"),
    "symmetric.eta_tilde": ("busy_s",),
    "numberfield.NumberField.get": ("calls", "misses", "busy_s"),
    "numberfield.NumberField.is_galois": ("calls", "busy_s"),
    "numberfield.minimal_polynomial": ("busy_s",),
    "numberfield.NFElem.mul": ("calls", "busy_s"),
    "numberfield.NFElem.inverse": ("calls", "busy_s"),
    "heights.morphism_certificate": ("calls", "misses", "busy_s", "degree_max"),
    "heights.canonical_height": ("calls", "self_s"),
    "heights.canonical_height_nf": ("self_s",),
    "linalg.solve_int_system": ("calls", "busy_s", "solved_frac"),
    "projective.MorphismPk.apply": ("calls", "busy_s"),
    "projective.BinaryForm.factor": ("calls", "self_s"),
    "projective.RationalMap1.apply_algebraic": ("calls", "busy_s"),
    "dynamics.preperiodic_graph": ("busy_s", "nodes"),
    "dynamics.rational_preimages": ("calls", "self_s"),
    "dynamics.rational_periodic_points": ("self_s",),
    "dynamics.fixed_point_form": ("busy_s", "deg_max"),
    "dynamics.orbit_classify": ("calls", "self_s"),
    "mpoly.MPoly.mul": ("calls", "busy_s"),
    "parser.parse_map": ("busy_s",),
    "cli.main": ("self_s",),
}
EXTRA_METRICS = ("setup.import_s", "setup.warm_s", "trace.overhead_frac")

UNITS = {"calls": "count", "misses": "count", "nodes": "count",
         "busy_s": "s", "self_s": "s", "import_s": "s", "warm_s": "s",
         "deg_max": "deg", "deg_sum": "deg", "degree_max": "deg",
         "useful_frac": "frac", "solved_frac": "frac", "overhead_frac": "frac"}
HIGHER_IS_BETTER = {"useful_frac", "solved_frac", "nodes"}

# Boundaries that must record spans on each workload.  Together they cover
# every boundary in METRICS.
PREDICTED = {
    "graph": (
        "cli.main", "parser.parse_map", "dynamics.preperiodic_graph",
        "dynamics.rational_periodic_points", "dynamics.rational_preimages",
        "dynamics.fixed_point_form", "symmetric.symmetrize",
        "symmetric.conjugate_points", "projective.BinaryForm.factor",
        "polyfactor.factor_unipoly", "polyfactor.squarefree_decomposition",
        "numberfield.NumberField.get", "numberfield.NumberField.is_galois",
        "numberfield.NFElem.mul", "numberfield.NFElem.inverse",
        "projective.MorphismPk.apply", "mpoly.MPoly.mul"),
    "heights": (
        "heights.canonical_height", "heights.canonical_height_nf",
        "heights.morphism_certificate", "symmetric.symmetrize",
        "symmetric.eta_tilde", "numberfield.minimal_polynomial",
        "numberfield.NFElem.mul", "numberfield.NumberField.is_galois"),
    "cycles": (
        "parser.parse_map", "dynamics.rational_periodic_points",
        "dynamics.fixed_point_form", "dynamics.orbit_classify",
        "symmetric.symmetrize", "symmetric.conjugate_points",
        "symmetric.eta_tilde", "projective.BinaryForm.factor",
        "projective.MorphismPk.apply", "projective.RationalMap1.apply_algebraic",
        "polyfactor.factor_unipoly", "polyfactor.squarefree_decomposition",
        "numberfield.NumberField.get", "numberfield.NumberField.is_galois",
        "numberfield.minimal_polynomial", "numberfield.NFElem.mul",
        "numberfield.NFElem.inverse", "heights.morphism_certificate",
        "heights.canonical_height", "heights.canonical_height_nf",
        "linalg.solve_int_system", "mpoly.MPoly.mul"),
}
# Boundaries whose layers a workload must not reach at all.
PREDICTED_ABSENT = {"graph": ("heights.", "linalg.")}
# (boundary, metric) cells that must read exactly 0 in the timed phase.
PREDICTED_ZERO = {"heights": (("heights.morphism_certificate", "misses"),
                              ("numberfield.NumberField.is_galois", "misses"))}


def per_layer_names():
    names = [f"{b}.{m}" for b, ms in METRICS.items() for m in ms]
    return names + list(EXTRA_METRICS)


def metric_spec(name):
    last = name.rsplit(".", 1)[1]
    return UNITS[last], "higher" if last in HIGHER_IS_BETTER else "lower"


# ---------------------------------------------------------------------------
# argument and result readers
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _point_degree(point):
    field = getattr(point, "field", None)
    return 1 if field is None else field.degree


def _cache_size(module, attr):
    def before(args, kwargs):
        return {"size": len(getattr(module, attr))}

    def after(args, kwargs, info, result):
        info["miss"] = len(getattr(module, attr)) > info.pop("size")
    return before, after


def _readers(sp):
    """boundary -> (before, after): before(args, kwargs) returns the span's
    info dict (or None); after(args, kwargs, info, result) fills it in."""
    k_from = {
        "dynamics.preperiodic_graph": lambda a, kw: _arg(a, kw, 1, "k"),
        "dynamics.rational_periodic_points": lambda a, kw: _arg(a, kw, 1, "k"),
        "dynamics.rational_preimages": lambda a, kw: _arg(a, kw, 1, "F").k,
        "symmetric.conjugate_points": lambda a, kw: _arg(a, kw, 0, "p").k,
        "dynamics.orbit_classify": lambda a, kw: _point_degree(_arg(a, kw, 1, "point")),
        "heights.canonical_height_nf": lambda a, kw: _point_degree(_arg(a, kw, 1, "point")),
    }
    readers = {name: ((lambda a, kw, fn=fn: {"k": fn(a, kw)}), None)
               for name, fn in k_from.items()}

    def factor_after(args, kwargs, info, result):
        info["deg"] = _arg(args, kwargs, 0, "poly").degree
        info["factors"] = [(g.degree, m) for g, m in result[1]]

    def graph_after(args, kwargs, info, result):
        info["nodes"] = len(result)

    def galois_before(args, kwargs):
        return {"miss": args[0]._galois is None}

    cert_before, cert_miss = _cache_size(sp.heights, "_cert_cache")

    def cert_after(args, kwargs, info, result):
        cert_miss(args, kwargs, info, result)
        info["degree"] = max(result.exponents)

    readers.update({
        "polyfactor.factor_unipoly": (lambda a, kw: {}, factor_after),
        "dynamics.preperiodic_graph": (readers["dynamics.preperiodic_graph"][0],
                                       graph_after),
        "dynamics.fixed_point_form": (
            lambda a, kw: {},
            lambda a, kw, info, result: info.update(deg=result.degree)),
        "heights.morphism_certificate": (cert_before, cert_after),
        "linalg.solve_int_system": (
            lambda a, kw: {},
            lambda a, kw, info, result: info.update(solved=result is not None)),
        "symmetric.symmetrize": _cache_size(sp.symmetric, "_symmetrize_cache"),
        "numberfield.NumberField.get": _cache_size(sp.numberfield, "_field_cache"),
        "numberfield.NumberField.is_galois": (galois_before, None),
    })
    return readers


# ---------------------------------------------------------------------------
# recorder
# ---------------------------------------------------------------------------


class Recorder:
    """Spans of one traced process.  A span is the list
    [boundary id, start, end, parent span id, request id, nested, info];
    nested is true when an enclosing span has the same boundary."""

    def __init__(self):
        self.names = list(METRICS)
        self.spans = []
        self.stack = []
        self.depth = [0] * len(self.names)
        self.request = None
        self.paused = False

    def wrap(self, fid, fn, before, after):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            span = [fid, 0.0, 0.0, rec.stack[-1] if rec.stack else -1,
                    rec.request, rec.depth[fid] > 0,
                    before(args, kwargs) if before else None]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            rec.depth[fid] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec.depth[fid] -= 1
                rec.stack.pop()
            if after:
                after(args, kwargs, span[6], result)
            return result
        return wrapper

    # -- results -------------------------------------------------------------

    def _k_of(self, sid):
        """k of the nearest enclosing span that carries one."""
        while sid >= 0:
            info = self.spans[sid][6]
            if info and "k" in info:
                return info["k"]
            sid = self.spans[sid][3]
        return None

    def metrics(self):
        """Per-boundary metrics as {"<boundary>.<metric>": number}."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        acc = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "misses": 0,
                      "deg_max": 0, "deg_sum": 0, "useful": 0, "returned": 0,
                      "degree_max": 0, "solved": 0, "nodes": 0}
               for name in self.names}
        for sid, (fid, t0, t1, parent, _req, nested, info) in enumerate(self.spans):
            a = acc[self.names[fid]]
            a["calls"] += 1
            a["self_s"] += (t1 - t0) - child[sid]
            if not nested:
                a["busy_s"] += t1 - t0
            if not info:
                continue
            a["misses"] += bool(info.get("miss"))
            a["solved"] += bool(info.get("solved"))
            a["nodes"] += info.get("nodes", 0)
            a["degree_max"] = max(a["degree_max"], info.get("degree", 0))
            if "deg" in info:
                a["deg_max"] = max(a["deg_max"], info["deg"])
                a["deg_sum"] += info["deg"]
            if "factors" in info:
                k = self._k_of(parent)
                if k is not None:
                    for deg, mult in info["factors"]:
                        a["returned"] += deg * mult
                        if deg <= k:
                            a["useful"] += deg * mult
        out = {}
        for name, wanted in METRICS.items():
            a = acc[name]
            for metric in wanted:
                if metric == "useful_frac":
                    value = a["useful"] / a["returned"] if a["returned"] else 0.0
                elif metric == "solved_frac":
                    value = a["solved"] / a["calls"] if a["calls"] else 0.0
                else:
                    value = a[metric]
                out[f"{name}.{metric}"] = value
        return out

    def violations(self, workload):
        """Predicted cells that do not hold, as messages."""
        out = []
        for name in PREDICTED.get(workload, ()):
            if not any(self.names[s[0]] == name for s in self.spans):
                out.append(f"{name} recorded no spans on {workload}")
        for prefix in PREDICTED_ABSENT.get(workload, ()):
            hit = sorted({self.names[s[0]] for s in self.spans
                          if self.names[s[0]].startswith(prefix)})
            if hit:
                out.append(f"{', '.join(hit)} recorded spans on {workload}")
        for name, metric in PREDICTED_ZERO.get(workload, ()):
            misses = sum(1 for s in self.spans
                         if self.names[s[0]] == name and s[6] and s[6].get("miss"))
            if misses:
                out.append(f"{name}.{metric} = {misses} on {workload}, predicted 0")
        return out


def _resolve(sp, boundary):
    module_name, _, rest = boundary.partition(".")
    module = getattr(sp, module_name)
    if "." in rest:
        cls_name, meth = rest.split(".")
        return module, getattr(module, cls_name), "__mul__" if meth == "mul" else meth
    return module, None, rest


def install(sp) -> Recorder:
    """Wrap every boundary of the loaded symprod package; return the recorder."""
    rec = Recorder()
    readers = _readers(sp)
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "symprod" or name.startswith("symprod."))]
    for fid, boundary in enumerate(rec.names):
        before, after = readers.get(boundary, (None, None))
        module, cls, attr = _resolve(sp, boundary)
        if cls is None:
            orig = getattr(module, attr)
            wrapped = rec.wrap(fid, orig, before, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
            continue
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(rec.wrap(fid, raw.__func__, before, after)))
            continue
        wrapped = rec.wrap(fid, raw, before, after)
        for key, val in list(vars(cls).items()):
            if val is raw:
                setattr(cls, key, wrapped)
    return rec
