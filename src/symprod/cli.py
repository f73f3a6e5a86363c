"""Command-line interface.

Subcommands dispatch to single library operations; output is deterministic
(human text by default, --json for machine output, --dot for graphs).  Exit
codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dynamics import (DEFAULT_BUDGET, PeriodBoundInput, default_n_max,
                       period_bound, preperiodic_graph,
                       rational_periodic_points)
from .errors import DomainError, SymprodError
from .heights import bad_primes_sym, canonical_height
from .parser import parse_map, parse_point
from .spectra import is_pcf, is_strongly_pcf_symmetric, multiplier_F
from .symmetric import symmetrize

PROG = "symprod"


def _emit(args, payload: dict, human: str):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))  # no indent: json's C encoder
    else:
        print(human)


def _cmd_symmetrize(args):
    f = parse_map(args.map).map
    F = symmetrize(f, args.k)
    names = [f"x{i}" for i in range(args.k + 1)]
    comps = [c.to_text(names) for c in F.components]
    payload = {"schema_version": "1", "map": args.map, "k": args.k,
               "degree": F.d, "components": comps}
    _emit(args, payload, "\n".join(comps))
    return 0


def _cmd_preperiodic(args):
    f = parse_map(args.map).map
    n_max = args.n_max
    if n_max is None:
        n_max = default_n_max(f, args.k, budget=args.budget)
    graph = preperiodic_graph(f, args.k, n_max, budget=args.budget)
    rat, orbits = graph.recovered_points()
    lines = [f"nodes: {len(graph)}", f"n_max: {n_max}",
             "rational preperiodic points of the base map:"]
    lines += [f"  {pt.to_text()}" for pt in rat]
    total = len(rat)
    orbit_rows = []
    for _minpoly, fld in orbits:
        orbit_rows.append({"minpoly": fld.minpoly_int.to_text(),
                           "degree": fld.degree, "galois": fld.is_galois()})
        # the orbit's points over its own field: one per automorphism
        roots = fld.automorphism_count()
        total += roots
        lines.append(f"over degree-{fld.degree} field "
                     f"{fld.minpoly_int.to_text()}: {roots} points")
    lines.append(f"total points over fields of degree <= {args.k}"
                 f" (Galois-counted): {total}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph.to_dot())
        lines.append(f"dot written to {args.dot}")
    payload = {}
    if args.json:  # the human output reads no node
        payload = graph.to_json()
        payload["recovered"] = {
            "rational": [pt.to_text() for pt in rat],
            "orbits": orbit_rows,
            "total_galois_counted": total,
        }
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_canonical_height(args):
    f = parse_map(args.map).map
    pt = parse_point(args.point)
    k = args.k if args.k is not None else pt.k
    if pt.k != k:
        raise DomainError(f"point has dimension {pt.k}, expected {k}")
    F = symmetrize(f, k)
    hv = canonical_height(F, pt, tol=args.tol, prec=args.precision,
                          bad=bad_primes_sym(f, k))
    places = ", ".join(f"{name}: {val:.10g}" for name, val in hv.places)
    human = (f"canonical height = {hv.value:.10g} "
             f"(error bound {hv.error_bound:.3g})\n  places: {places}")
    _emit(args, hv.to_json(), human)
    return 0


def _cmd_bad_primes(args):
    f = parse_map(args.map).map
    primes = bad_primes_sym(f, 1 if args.k is None else args.k)
    payload = {"schema_version": "1", "map": args.map,
               "bad_primes": list(primes)}
    _emit(args, payload, " ".join(str(p) for p in primes) if primes else "none")
    return 0


def _cmd_period_bound(args):
    inp = PeriodBoundInput(Np=args.Np, k=args.k, p=args.p, vp=args.v)
    bound = period_bound(inp)
    payload = {"schema_version": "1", "Np": args.Np, "p": args.p,
               "v": args.v, "k": args.k, "bound": bound}
    _emit(args, payload, str(bound))
    return 0


def _cmd_multipliers(args):
    f = parse_map(args.map).map
    n_max = args.n_max if args.n_max is not None else \
        default_n_max(f, args.k, budget=args.budget)
    pts = rational_periodic_points(f, args.k, n_max, budget=args.budget)
    reports = [multiplier_F(f, args.k, p, per) for p, per in pts]
    data = [rep.to_json() for rep in reports]  # the lines below reuse it
    lines = [f"point {rep.point} period {rep.period}: "
             f"charpoly = {d['charpoly_factored']}"
             for rep, d in zip(reports, data)]
    payload = {"schema_version": "1", "map": args.map, "k": args.k,
               "multipliers": data}
    _emit(args, payload, "\n".join(lines) if lines else "no periodic points found")
    return 0


def _cmd_pcf(args):
    f = parse_map(args.map).map
    if args.k in (None, 1):
        cert = is_pcf(f)
        label = "base map"
    else:
        cert = is_strongly_pcf_symmetric(f, args.k)
        label = f"{args.k}-symmetric product (strong)"
    lines = [f"{label}: {cert.verdict}"]
    for fld, pt, mult, cls in cert.entries:
        where = "Q" if fld is None else fld.minpoly_int.to_text()
        if cls.preperiodic:
            state = f"preperiodic (tail {cls.tail}, period {cls.period})"
        else:
            state = (f"wandering (height escape at iterate {cls.escape_index}, "
                     f"bound {cls.bound:.4g})")
        lines.append(f"  critical point {pt.to_text('w')} (field {where}, "
                     f"multiplicity {mult}): {state}")
    _emit(args, cert.to_json(), "\n".join(lines))
    return 0


def _cmd_fixtures(args):
    from .fixtures import run_fixtures
    results = run_fixtures()
    lines = []
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        ok = ok and r.passed
        lines.append(f"[{status}] {r.name} [{r.provenance}] ({r.seconds:.2f}s)"
                     + (f": {r.detail}" if r.detail else ""))
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} fixtures passed")
    payload = {"schema_version": "1",
               "results": [{"name": r.name, "provenance": r.provenance,
                            "passed": r.passed, "detail": r.detail}
                           for r in results]}
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog=PROG,
        description="Exact arithmetic for symmetric products of rational "
                    "self-maps of the projective line.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, mapflag=True, k=False, tol=False, nmax=False):
        if mapflag:
            p.add_argument("--map", required=True,
                           help='map expression, e.g. "x^2 - 29/16" or '
                                '"[16*z^2 - 29*t^2, 16*t^2]"')
        if k:
            p.add_argument("--k", type=int, default=None,
                           help="symmetric-product dimension")
        if tol:
            p.add_argument("--tol", type=float, default=1e-6)
            p.add_argument("--precision", type=int, default=53,
                           help="working precision in bits")
        if nmax:
            p.add_argument("--n-max", dest="n_max", type=int, default=None,
                           help="largest base period searched")
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="largest fixed-point form degree factored")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("symmetrize", help="compute the k-symmetric product")
    add_common(p, k=True)
    p.set_defaults(func=_cmd_symmetrize, k_required=True)

    p = sub.add_parser("preperiodic",
                       help="rational preperiodic structure of the symmetric product")
    add_common(p, k=True, nmax=True)
    p.add_argument("--dot", default=None, help="write the graph in DOT format")
    p.set_defaults(func=_cmd_preperiodic, k_required=True)

    p = sub.add_parser("canonical-height", help="canonical height of a point")
    add_common(p, k=True, tol=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_canonical_height)

    p = sub.add_parser("bad-primes", help="primes of bad reduction")
    add_common(p, k=True)
    p.set_defaults(func=_cmd_bad_primes)

    p = sub.add_parser("period-bound",
                       help="good-reduction bound on periods over degree-k extensions")
    p.add_argument("--Np", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_period_bound)

    p = sub.add_parser("multipliers",
                       help="multiplier spectra of rational periodic points")
    add_common(p, k=True, nmax=True)
    p.set_defaults(func=_cmd_multipliers, k_required=True)

    p = sub.add_parser("pcf", help="postcritical finiteness certificate")
    add_common(p, k=True)
    p.set_defaults(func=_cmd_pcf)

    p = sub.add_parser("fixtures", help="run the regression corpus")
    p.add_argument("action", choices=["run"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fixtures)

    return ap


_parser = None


def main(argv=None) -> int:
    # one parser per process, built on the first call rather than at import
    global _parser
    if _parser is None:
        _parser = build_parser()
    ap = _parser
    args = ap.parse_args(argv)
    if getattr(args, "k_required", False) and args.k is None:
        ap.error(f"{args.command} requires --k")
    # Results can have more digits than the interpreter's int/str conversion
    # limit (Python >= 3.10.7); the size of the argument list bounds inputs.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except SymprodError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
