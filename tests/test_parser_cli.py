import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import symprod
from symprod import (DegenerateMapError, DomainError, MPoly, ParseError,
                     PkPoint, parse_map, parse_point)
from symprod import cli
from symprod import fixtures as fixtures_mod
from symprod.parser import parse_mpoly

F = Fraction
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MODULE = os.path.splitext(os.path.basename(__file__))[0]


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_affine():
    m = parse_map("x^2 - 29/16")
    assert m.kind == "affine"
    assert m.map.num == (16, 0, -29)
    assert m.map.den == (0, 0, 16)


def test_parse_homogeneous():
    m = parse_map("[16*z^2 - 29*t^2, 16*t^2]")
    assert m.kind == "homogeneous"
    assert m.map == parse_map("x^2 - 29/16").map


def test_parse_milnor_form():
    m = parse_map("[z^2 + 4*z*t, t^2 + 4*z*t]")
    assert m.map.num == (1, 4, 0)
    assert m.map.den == (0, 4, 1)
    assert m.map.d == 2


def test_parse_rejects_low_degree():
    with pytest.raises(DomainError):
        parse_map("x")
    with pytest.raises(DomainError):
        parse_map("3")
    with pytest.raises(DomainError):
        parse_map("[z, t]")


def test_parse_rejects_degenerate():
    with pytest.raises(DegenerateMapError):
        parse_map("[z^2, z^2]")
    with pytest.raises(DegenerateMapError):
        parse_map("[z^2 - t^2, z^2 - t^2]")


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_map("x^2 + $")
    assert "position 6" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_mpoly("x0 * (x1 + ", ["x0", "x1"])
    assert e.value.position is not None
    with pytest.raises(ParseError):
        parse_mpoly("x0 / x1", ["x0", "x1"])
    with pytest.raises(ParseError):
        parse_mpoly("y", ["x"])


def test_parse_division_by_constant():
    p = parse_mpoly("(3*x + 1)/2", ["x"])
    assert p == MPoly(1, {(1,): F(3, 2), (0,): F(1, 2)})


def test_parse_print_parse_idempotent():
    for text in ("x^2 - 29/16", "x^2 + 1", "[16*z^2 - 29*t^2, 16*t^2]",
                 "[z^2 + 4*z*t, t^2 + 4*z*t]",
                 "[(z^2 - 2*t^2)^2, 4*z*t*(z - t)*(z - 2*t)]"):
        m1 = parse_map(text)
        m2 = parse_map(m1.to_text())
        assert m1.map == m2.map, text


def test_parse_point():
    assert parse_point("3").coords == (3, 1)
    # canonical representative: first nonzero coordinate positive
    assert parse_point("-7/4").coords == (7, -4)
    assert parse_point("oo").coords == (1, 0)
    assert parse_point("[1, 0]").coords == (1, 0)
    assert parse_point("(81, 108, 54, 12, 1)").coords == (81, 108, 54, 12, 1)
    with pytest.raises(ParseError):
        parse_point("(3)")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_period_bound(capsys):
    assert cli.main(["period-bound", "--Np", "3", "--p", "3", "--v", "1",
                     "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "234"


def test_cli_default_n_max_without_factoring_the_resultant(capsys):
    # the resultant of this map has a 127-bit factor that is over budget
    m = "x^2 + 1/100000000000000001380000000000000004437^2"
    for command in ("preperiodic", "multipliers"):
        assert cli.main([command, "--map", m, "--k", "2"]) == 0
        default = capsys.readouterr().out
        assert cli.main([command, "--map", m, "--k", "2", "--n-max", "6"]) == 0
        assert capsys.readouterr().out == default


def test_cli_symmetrize_deterministic(capsys):
    rc = cli.main(["symmetrize", "--map", "x^2 - 2", "--k", "4", "--json"])
    assert rc == 0
    first = capsys.readouterr().out
    cli.main(["symmetrize", "--map", "x^2 - 2", "--k", "4", "--json"])
    second = capsys.readouterr().out
    assert first == second                      # byte-stable
    data = json.loads(first)
    assert data["schema_version"] == "1"
    assert data["components"][-1] == "x4^2"


def test_cli_canonical_height(capsys):
    rc = cli.main(["canonical-height", "--map", "x^2 - 2", "--point", "3",
                   "--tol", "1e-6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.96242365" in out


def test_cli_canonical_height_pk_point(capsys):
    rc = cli.main(["canonical-height", "--map", "x^2 - 2", "--k", "4",
                   "--point", "(1,-1,1,-1,1)", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["value"] - 1.5536) < 1e-3
    assert data["error_bound"] < 1e-5
    assert any(p["place"] == "arch" for p in data["places"])


def test_cli_bad_primes(capsys):
    assert cli.main(["bad-primes", "--map", "x^2 - 29/16"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert cli.main(["bad-primes", "--map", "x^2 - 2"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_cli_preperiodic_report(capsys, tmp_path):
    dot = tmp_path / "graph.dot"
    rc = cli.main(["preperiodic", "--map", "x^2 - 21/16", "--k", "2",
                   "--n-max", "2", "--dot", str(dot)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rational preperiodic points" in out
    text = dot.read_text()
    assert text.startswith("digraph preperiodic {")
    assert "minpoly=" in text and "coords=" in text


def test_cli_preperiodic_json_stable(capsys):
    args = ["preperiodic", "--map", "x^2 - 21/16", "--k", "2",
            "--n-max", "2", "--json"]
    assert cli.main(args) == 0
    a = capsys.readouterr().out
    assert cli.main(args) == 0
    b = capsys.readouterr().out
    assert a == b
    data = json.loads(a)
    assert data["schema_version"] == "1"
    assert data["recovered"]["rational"]


def _conjugates_in_own_field(minpoly_text):
    """How many roots of the minimal polynomial are polynomials in one root
    a with rational coefficients: PSLQ on 600-bit roots, no field code."""
    import mpmath  # here, so that the child of _cold_start starts without it
    coeffs = parse_mpoly(minpoly_text, ["x"]).terms
    n = max(e for (e,) in coeffs)
    with mpmath.workprec(600):
        roots = mpmath.polyroots([int(coeffs.get((n - i,), 0)) for i in range(n + 1)],
                                 maxsteps=200, extraprec=600)
        a = roots[0]
        weight = mpmath.e  # a relation among complex numbers, read on one real line
        count = 0
        for b in roots:
            vec = [b] + [a ** i for i in range(n)]
            rel = mpmath.pslq([mpmath.re(z) + weight * mpmath.im(z) for z in vec],
                              maxcoeff=10 ** 8, maxsteps=10 ** 5)
            count += rel is not None
    return count


@pytest.mark.parametrize("text", ["x^2 - 1", "x^2 - 29/16"])
def test_cli_preperiodic_counts_points_per_automorphism(capsys, text):
    # at k = 4 some quartic orbits hold a and -a but not the other two
    # conjugates: such an orbit has two points over its own field
    assert cli.main(["preperiodic", "--map", text, "--k", "4", "--n-max", "2"]) == 0
    out = capsys.readouterr().out
    orbits = re.findall(r"over degree-(\d+) field (.+): (\d+) points", out)
    rational = out.split("base map:\n")[1].split("\nover")[0].splitlines()
    assert orbits and rational
    for degree, minpoly, count in orbits:
        assert int(count) == _conjugates_in_own_field(minpoly), minpoly
    assert any(1 < int(c) < int(d) for d, _m, c in orbits)
    total = int(out.rsplit(": ", 1)[1])
    assert total == len(rational) + sum(int(c) for _d, _m, c in orbits)


def test_cli_multipliers(capsys):
    rc = cli.main(["multipliers", "--map", "x^2 - 29/16", "--k", "3",
                   "--n-max", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "charpoly" in out and "35" in out


def test_cli_pcf(capsys):
    assert cli.main(["pcf", "--map", "x^2 - 1"]) == 0
    assert "PCF" in capsys.readouterr().out
    assert cli.main(["pcf", "--map", "x^2 - 1/4", "--k", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "not-PCF"
    assert data["notes"]


def test_cli_exit_codes(capsys):
    # domain error -> 1 with a stable code on stderr
    rc = cli.main(["symmetrize", "--map", "x", "--k", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[E_DOMAIN]")
    rc = cli.main(["canonical-height", "--map", "x^2 + $", "--point", "3"])
    assert rc == 1
    assert "error[E_PARSE]" in capsys.readouterr().err
    # usage error -> argparse exits 2
    with pytest.raises(SystemExit) as e:
        cli.main(["symmetrize"])
    assert e.value.code == 2
    capsys.readouterr()


def test_cli_parser_is_reused_across_calls(capsys):
    argv = ["preperiodic", "--map", "x^2 - 21/16", "--k", "3", "--n-max", "2",
            "--json"]
    assert cli.main(["symmetrize", "--map", "x^2 - 2", "--k", "2"]) == 0
    parser = cli._parser
    assert cli.main(["period-bound", "--Np", "3", "--p", "3", "--v", "1",
                     "--k", "2", "--json"]) == 0
    for bad in (["preperiodic", "--map", "x^2"], ["symmetrize", "--k", "x"]):
        with pytest.raises(SystemExit) as e:
            cli.main(bad)
        assert e.value.code == 2
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert cli._parser is parser
    fresh = subprocess.run([sys.executable, "-m", "symprod.cli"] + argv,
                           env=_env(), capture_output=True, text=True,
                           timeout=30)
    assert fresh.returncode == 0
    assert capsys.readouterr().out == fresh.stdout


def test_cli_budget_default_is_library_default():
    args = cli.build_parser().parse_args(
        ["preperiodic", "--map", "x^2 - 2", "--k", "2"])
    assert args.budget == symprod.DEFAULT_BUDGET


def test_cli_fixture_subset(monkeypatch, capsys):
    subset = [f for f in fixtures_mod.FIXTURES
              if f.name in ("eta-diagonal", "period-bound")]
    monkeypatch.setattr(fixtures_mod, "FIXTURES", subset)
    assert cli.main(["fixtures", "run"]) == 0
    out = capsys.readouterr().out
    assert "[pass] eta-diagonal [PAPER]" in out
    assert "2/2 fixtures passed" in out


# ---------------------------------------------------------------------------
# fixture corpus: all pass, and every library operation is exercised
# ---------------------------------------------------------------------------

OPERATIONS = [
    "factor_integer", "factor_unipoly", "nf_arith", "minimal_polynomial",
    "eta", "symmetrize", "form_of_point", "point_of_form", "conjugate_points",
    "eta_tilde", "apply", "orbit_classify", "periods_mod_p", "period_bound",
    "exponent_bound", "rational_periodic_points", "rational_preimages",
    "preperiodic_graph", "naive_height", "bad_primes", "bad_primes_sym",
    "height_comparison_constant", "preperiodicity_bound", "green_local",
    "canonical_height", "canonical_height_nf", "multiplier_f", "multiplier_F",
    "critical_points", "is_pcf", "is_strongly_pcf_symmetric", "parse_map",
    "verify_commutation",
]


def test_fixture_corpus_passes_and_covers_every_operation(monkeypatch):
    counts = {}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in OPERATIONS:
        monkeypatch.setattr(symprod, name, wrap(name, getattr(symprod, name)))
    results = fixtures_mod.run_fixtures()
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert all(r.provenance in ("PAPER", "DERIVED", "TRIVIAL") for r in results)
    missing = [n for n in OPERATIONS if n not in counts]
    assert not missing, f"operations not exercised by fixtures: {missing}"


# ---------------------------------------------------------------------------
# resource guards and coded failures
# ---------------------------------------------------------------------------


def _parse_degree_cap():
    assert parse_map("(x^8)^8").map.d == symprod.DEFAULT_BUDGET
    for text in ("x^99999999", "(x+1)^65", "(x^8)^9", "x^40*x^30",
                 "[z^65, t^65]", "2^65*x^2"):
        with pytest.raises(symprod.BudgetExceededError):
            parse_map(text)
    with pytest.raises(ParseError):
        parse_map("x^2 - " + "9" * 5000)
    # no coefficient of a subexpression may be longer than a typed numeral:
    # a power of one term is refused exactly when it would be, a power of
    # several when it could be, and products and sums when they are
    assert parse_map("x^2 + (10^64)^64").map.num[2] == 10 ** 4096
    big = 10 ** 67 - 1
    assert parse_mpoly(f"(x + {big})^64", ["x"]).terms[(0,)] == big ** 64
    assert parse_map("x^2 + (10^64)^64/(10^64)^64").map.num[2] == 1
    for text in ("x^2 + ((10^64)^64)^64", "x^2 + ((10^64)^64*x)^2",
                 "x^2 + (1/(10^60)^50)^2", "x^2 + (x + (10^64)^64)^8",
                 f"x^2 + (x + 9{big})^64", f"x^2 + (x/9{big} + 1)^64",
                 "x^2 + (x + (10^64)^64)*(x + (10^64)^64)",
                 "x^2 + (10^64)^64*(10^64)^64",
                 "x^2 + 1/((10^64)^64 - 1) + 1/((10^64)^64 + 1)"):
        with pytest.raises(symprod.BudgetExceededError):
            parse_map(text)
    for text in ("((10^64)^64)^64", f"(x + 9{big})^64",
                 "x^2*(10^64)^64*(10^64)^64", "x/(10^64)^64/(10^64)^64"):
        with pytest.raises(symprod.BudgetExceededError):
            parse_mpoly(text, ["x"])


def _refuse_huge_inputs():
    semiprime = (2 ** 89 - 1) * (2 ** 107 - 1)
    for argv in (["bad-primes", "--map", "x^99999999"],
                 ["symmetrize", "--map", "x^2 - 2", "--k", "65"],
                 ["period-bound", "--Np", "3", "--p", "3", "--v", "1",
                  "--k", "100000000"],
                 ["symmetrize", "--map", "x^2 + ((10^64)^64)^64", "--k", "2"],
                 ["symmetrize", "--map", "x^2 + (x + (10^64)^64)^8", "--k", "2"],
                 ["bad-primes", "--map", f"x^2 + (x + {'9' * 4296})^64"],
                 ["bad-primes", "--map", f"x^2 + 1/{semiprime}"],
                 ["canonical-height", "--map", "x^2 - 2", "--point", "3",
                  "--precision", "10000000"]):
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert time.perf_counter() - start < 0.5, argv
        assert rc == 1
        assert err.getvalue().startswith("error[E_BUDGET]")


def _refuse_oversized_symmetric_product():
    # F has up to 21 C(30, 10) = 6.3e8 terms; the determinant ran past 25 s
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["symmetrize", "--map", "x^10", "--k", "20"])
    assert time.perf_counter() - start < 2
    assert rc == 1
    assert err.getvalue().startswith("error[E_BUDGET]")


def _refuse_huge_probable_prime():
    # 1477! + 1 is a 4042-digit factorial prime; its Miller-Rabin test would
    # take about 90 s, so bad-primes refuses it by the work budget
    n = math.factorial(1477) + 1
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["bad-primes", "--map", f"x^2 + 1/{n}"])
    assert time.perf_counter() - start < 1
    assert rc == 1
    assert err.getvalue().startswith("error[E_BUDGET]")


def _parse_degree_64_map():
    # a polynomial map's resultant is a power of its leading coefficient;
    # the 128 x 128 Sylvester determinant ran past 100 s
    start = time.perf_counter()
    f = parse_map("x^2 + (x + 99)^64").map
    assert time.perf_counter() - start < 1
    assert f.d == 64 and f.res == 1


def _preperiodic_k5():
    # the k = 5 graph of x^2 - 29/16 took 24 s when preimages were found by
    # filtering every product of pullback factors through F
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["preperiodic", "--map", "x^2 - 29/16", "--k", "5",
                       "--n-max", "3", "--json"])
    assert time.perf_counter() - start < 20
    assert rc == 0
    assert len(json.loads(out.getvalue())["nodes"]) == 2725


def _cold_start():
    # the exact commands search no certificate and compute no height, so
    # they load neither numpy nor mpmath
    for argv in (["preperiodic", "--map", "x^2 - 29/16", "--k", "3",
                  "--n-max", "3", "--json"],
                 ["bad-primes", "--map", "x^2 - 29/16"],
                 ["symmetrize", "--map", "x^2 - 29/16", "--k", "3"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules and "mpmath" not in sys.modules
    f = parse_map("x^2 - 29/16").map
    symprod.morphism_certificate(symprod.symmetrize(f, 2))
    assert "numpy" in sys.modules
    symprod.canonical_height_nf(f, symprod.AlgebraicPoint.rational(3))
    assert "mpmath" in sys.modules


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _in_child(fn, timeout=10):
    """Run fn, a function of this module, in a fresh interpreter: an input
    that hangs again fails its test after timeout seconds instead of stalling
    the suite."""
    done = subprocess.run(
        [sys.executable, "-c", f"import {MODULE} as t; t.{fn.__name__}()"],
        cwd=HERE, env=_env(), capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr


def test_parse_degree_cap():
    _in_child(_parse_degree_cap)


def test_cli_huge_exponent_is_refused_quickly():
    _in_child(_refuse_huge_inputs)


def test_cli_huge_probable_prime_is_refused_quickly():
    _in_child(_refuse_huge_probable_prime)


def test_parse_degree_64_polynomial_map():
    _in_child(_parse_degree_64_map)


def test_cli_preperiodic_k5_is_fast():
    _in_child(_preperiodic_k5, timeout=30)


def test_cold_start_loads_numpy_and_mpmath_only_when_needed():
    _in_child(_cold_start, timeout=30)


_BAD_MAPS = ["", "x", "x^2 +", "x^^2", "(x^2", "[z^2, ]", "[z^2, t^3]",
             "[z^2, z^2]", "[z^2, t^2, z*t]", "x^2 / 0", "x^2/(x-1)",
             "x^2 - y", "x^2 - 1.5", "x^x", "x^-2", "[0, t^2]", "[]", "²",
             "x²", "x^2 - " + "9" * 5000, "x^" + "9" * 5000]
_BAD_POINTS = ["", "1/0", "0/0", "(1,2", "()", "(0,0)", "x", "(1,,2)",
               "(1, 2/0)", "2^99999999", "9" * 5000]
# a point of P^2 where --k asks for P^3
_WRONG_DIMENSION = ["canonical-height", "--map", "x^2 - 2", "--point", "(1,2,1)",
                    "--k", "3"]


def _cli_cases():
    for m in _BAD_MAPS:
        yield ["symmetrize", "--map", m, "--k", "2"]
        yield ["bad-primes", "--map", m]
        yield ["pcf", "--map", m]
        yield ["preperiodic", "--map", m, "--k", "1", "--n-max", "1"]
        yield ["multipliers", "--map", m, "--k", "1", "--n-max", "1"]
        yield ["canonical-height", "--map", m, "--point", "3"]
    for pt in _BAD_POINTS:
        for k in ([], ["--k", "2"]):
            yield ["canonical-height", "--map", "x^2 - 2", "--point", pt] + k
    yield _WRONG_DIMENSION
    for k in ("0", "-1"):
        yield ["symmetrize", "--map", "x^2 - 2", "--k", k]
        yield ["bad-primes", "--map", "x^2 - 2", "--k", k]
        yield ["pcf", "--map", "x^2 - 1", "--k", k]
        yield ["preperiodic", "--map", "x^2 - 2", "--k", k, "--n-max", "1"]
        yield ["preperiodic", "--map", "x^2 - 2", "--k", "1", "--n-max", k]
        yield ["preperiodic", "--map", "x^2 - 2", "--k", "1", "--budget", k]
        yield ["multipliers", "--map", "x^2 - 2", "--k", k, "--n-max", "1"]
        yield ["period-bound", "--Np", k, "--p", "3", "--v", "1", "--k", "2"]
        yield ["period-bound", "--Np", "3", "--p", "3", "--v", k, "--k", "2"]
        yield ["period-bound", "--Np", "3", "--p", "3", "--v", "1", "--k", k]
    for p in ("-1", "0", "1", "4"):
        yield ["period-bound", "--Np", "4", "--p", p, "--v", "1", "--k", "2"]
    for tol in ("0", "-1", "nan", "inf", "1e-320"):
        yield ["canonical-height", "--map", "x^2 - 2", "--point", "3",
               "--tol", tol]
    for prec in ("0", "10000000", "14286"):
        yield ["canonical-height", "--map", "x^2 - 2", "--point", "3",
               "--precision", prec]
    # a result longer than the interpreter's default int/str limit
    yield ["period-bound", "--Np", "3", "--p", "3", "--v", "1", "--k", "10000"]


def test_cli_failures_are_always_coded(capsys):
    """Malformed maps, points and numeric fields end in exit 0, or exit 1
    with a coded error: never an uncaught exception."""
    for argv in _cli_cases():
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1), argv
        if rc == 1:
            assert err.startswith("error[E_"), (argv, err)
        if argv == _WRONG_DIMENSION:
            assert err.startswith("error[E_DOMAIN]"), err
    _in_child(_refuse_oversized_symmetric_product)
