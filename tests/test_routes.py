"""Route tests: Laurent factorization, the two Z[X] descent routes, the
bivariate route, and cross-route agreement."""

import random
import sys
from collections import Counter

import pytest

from locfactor import routes
from locfactor.basefactor import check_factorization_unique, factor_bivariate
from locfactor.cli import main
from locfactor.errors import DeskScaleError, MathDomainError
from locfactor.localization import LT, embed
from locfactor.rings import ZX, ZXY
from locfactor.routes import (
    compare_routes,
    factor_iterated,
    factor_laurent,
    factor_zx_via_fraction_field,
    factor_zx_via_laurent,
    fracfield_submonoid,
    iterated_submonoid,
)
from locfactor.selftest import rand_bivariate_feasible, rand_zx


class TestFactorLaurent:
    def test_examples(self):
        res = factor_laurent(LT.fraction((-1,), ZX.make([1, 0, 1])))  # T^-1 + T
        pf = res.factorization
        assert LT.normal_form(pf.unit) == ((-1,), ZX.one)
        assert pf.factors == (embed(ZX.make([1, 0, 1]), LT.S),)
        assert [(c.subject, c.case) for c in res.certificates] == [(ZX.make([1, 0, 1]), "localization")]
        res = factor_laurent(LT.fraction((3,), ZX.one))
        assert LT.normal_form(res.factorization.unit) == ((3,), ZX.one)
        assert res.factorization.factors == () and res.certificates == ()
        pf = factor_laurent(LT.fraction((1,), ZX.from_int(2))).factorization  # 2T
        assert LT.normal_form(pf.unit) == ((1,), ZX.one)
        assert pf.factors == (embed(ZX.from_int(2), LT.S),)

    def test_zero(self):
        with pytest.raises(MathDomainError):
            factor_laurent(LT.zero)

    def test_unit_law_and_t_avoidance(self):
        rng = random.Random("routes-laurent")
        for _ in range(40):
            low = rng.randint(-3, 3)
            body = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
            f = LT.fraction((low,), ZX.make(body))
            if LT.is_zero(f):
                continue
            res = factor_laurent(f)
            pf = res.factorization
            assert LT.normal_form(pf.unit)[1].coeffs in ((1,), (-1,))
            assert LT.eq(pf.value(LT), f)
            for l, cert in zip(pf.factors, res.certificates, strict=True):
                assert LT.normal_form(l) == ((0,), l.num)
                assert ZX.exact_div(ZX.gen, l.num) is None  # factor does not divide T
                assert cert.subject == l.num and cert.case == "localization" and cert.replay()

    def test_one_descent_per_input(self, monkeypatch):
        """Laurent input is factored by the Laurent route, once per request."""
        calls = []
        route = routes.factor_zx_via_laurent

        def counting(f):
            calls.append(f)
            return route(f)

        monkeypatch.setattr(routes, "factor_zx_via_laurent", counting)
        for argv in (["factor", "--", "(T^4+3*T^2+2)*T^-1"], ["factor", "--route", "direct", "--verbose", "--", "-2*T^-3+T^2"]):
            calls.clear()
            assert main(argv) == 0
            assert len(calls) == 1
        assert calls == [ZX.make([-2, 0, 0, 0, 0, 1])]


class TestLaurentRoute:
    def test_examples(self):
        res = factor_zx_via_laurent(ZX.make([0, 0, 1, 1]))
        assert res.factorization.factors == (ZX.gen, ZX.gen, ZX.make([1, 1]))
        res = factor_zx_via_laurent(ZX.make([-1, 0, 1]))
        assert res.factorization.factors == (ZX.make([-1, 1]), ZX.make([1, 1]))
        assert all(c.case == "localization" for c in res.certificates)
        with pytest.raises(MathDomainError):
            factor_zx_via_laurent(ZX.zero)


class TestFractionFieldRoute:
    def test_examples(self):
        res = factor_zx_via_fraction_field(ZX.make([2, 2]))
        assert res.factorization.factors == (ZX.from_int(2), ZX.make([1, 1]))
        assert [c.case for c in res.certificates] == ["generator", "localization"]
        res = factor_zx_via_fraction_field(ZX.from_int(6))
        assert res.factorization.factors == (ZX.from_int(2), ZX.from_int(3))
        assert all(c.case == "generator" for c in res.certificates)
        res = factor_zx_via_fraction_field(ZX.make([1, 0, 1]))
        assert res.factorization.factors == (ZX.make([1, 0, 1]),)
        assert res.certificates[0].case == "localization"

    def test_submonoid_prepass(self):
        S = fracfield_submonoid(ZX.make([3, 2]))  # 2X + 3: leading coefficient 2
        assert ZX.from_int(2) in S.generators
        res = factor_zx_via_fraction_field(ZX.make([3, 2]))
        assert res.factorization.factors == (ZX.make([3, 2]),)

    def test_monic_denominators_join_submonoid(self):
        # 2X + 1 is irreducible; its monic form X + 1/2 clears with denominator 2
        S = fracfield_submonoid(ZX.make([1, 2]))
        assert ZX.from_int(2) in S.generators
        res = factor_zx_via_fraction_field(ZX.make([1, 2]))
        assert res.factorization.factors == (ZX.make([1, 2]),)
        # (2X + 1)(3X + 1): the monic factors' denominators 2 and 3 are the
        # primes of the leading coefficient 6, in that order
        S = fracfield_submonoid(ZX.make([1, 5, 6]))
        assert S.generators == (ZX.from_int(2), ZX.from_int(3))
        # -10(2X + 1)(3X + 1): the content primes come first, then the
        # leading coefficient's new ones
        S = fracfield_submonoid(ZX.make([-10, -50, -60]))
        assert S.generators == (ZX.from_int(2), ZX.from_int(5), ZX.from_int(3))

    def test_empty_generator_set(self):
        S = fracfield_submonoid(ZX.make([-1, 0, 1]))
        assert S.generators == ()
        res = factor_zx_via_fraction_field(ZX.make([-1, 0, 1]))
        assert res.factorization.factors == (ZX.make([-1, 1]), ZX.make([1, 1]))


class TestIteratedRoute:
    def test_examples(self):
        x = ZX.gen
        res = factor_iterated(ZXY.make([x, x]))  # X*Y + X
        assert res.factorization.factors == (
            ZXY.constant(x),
            ZXY.make([ZX.one, ZX.one]),
        )
        assert [c.case for c in res.certificates] == ["generator", "localization"]
        res = factor_iterated(ZXY.make([ZX.make([-1]), ZX.zero, ZX.one]))  # Y^2 - 1
        assert len(res.factorization.factors) == 2
        res = factor_iterated(ZXY.from_int(2))
        assert res.factorization.factors == (ZXY.from_int(2),)
        assert res.certificates[0].case == "generator"

    def test_caps(self):
        with pytest.raises(DeskScaleError, match="desk-scale limit"):
            factor_iterated(ZXY.make([ZX.one] * 6))

    def test_agreement_with_substitution_engine(self):
        rng = random.Random("routes-iterated")
        for _ in range(15):
            f = rand_bivariate_feasible(rng)
            res = factor_iterated(f)
            assert ZXY.eq(res.factorization.value(ZXY), f)
            assert check_factorization_unique(ZXY, res.factorization, factor_bivariate(f))

    def test_empty_generator_set(self):
        f = ZXY.make([ZX.make([1, 1]), ZX.one])  # Y + X + 1, unit content
        S = iterated_submonoid(f)
        assert S.generators == ()
        res = factor_iterated(f)
        assert res.factorization.factors == (f,)


class TestOracleEngineBinding:
    """The constant-primes oracle calls the engine the route passes from the
    ``routes`` namespace, so a wrapper bound there by name (as a tracer
    installs one) sees every oracle call into the engine.  The route's check
    against the direct engine reads it from ``basefactor.ROUTE_TABLE``, and
    so goes through ``basefactor``'s binding instead."""

    @staticmethod
    def _count_callers(monkeypatch, name):
        callers = Counter()
        original = getattr(routes, name)

        def counting(*args):
            callers[sys._getframe(1).f_code.co_name] += 1
            return original(*args)

        monkeypatch.setattr(routes, name, counting)
        return callers

    def test_fraction_field_route(self, monkeypatch):
        callers = self._count_callers(monkeypatch, "factor_poly_zx")
        factor_zx_via_fraction_field(ZX.make([-2, 0, 2]))  # 2(X-1)(X+1)
        assert callers == Counter({"fracfield_submonoid": 1, "factor_fraction": 3})

    def test_iterated_route(self, monkeypatch):
        callers = self._count_callers(monkeypatch, "factor_bivariate")
        x2 = ZX.make([0, 0, 2])
        factor_iterated(ZXY.make([ZX.neg(x2), ZX.zero, x2]))  # 2X^2(Y-1)(Y+1)
        assert callers == Counter({"iterated_submonoid": 1, "factor_fraction": 3})


class TestCompareRoutes:
    def test_examples(self):
        report = compare_routes(ZX.make([-1, 0, 1]))
        for run in report.runs:
            normals = [q for q in run.factorization.factors]
            assert normals == [ZX.make([-1, 1]), ZX.make([1, 1])]
        report = compare_routes(ZX.make([0, 12]))
        for run in report.runs:
            assert run.factorization.factors == (
                ZX.from_int(2),
                ZX.from_int(2),
                ZX.from_int(3),
                ZX.gen,
            )
        report = compare_routes(ZX.one)
        for run in report.runs:
            assert run.factorization.factors == ()
        assert len(report.agreements) == 3

    def test_each_descent_route_is_checked_against_the_direct_engine(self, monkeypatch):
        """Agreement is an equivalence: compare checks two pairs and reports
        three, after one check inside each descent route."""
        calls = []
        original = routes.check_factorization_unique

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(routes, "check_factorization_unique", counting)
        report = compare_routes(ZX.make([-2, 0, 2]))  # 2(X-1)(X+1)
        assert len(calls) == 4
        assert report.agreements == (("direct", "laurent"), ("direct", "fracfield"), ("laurent", "fracfield"))

    def test_random_agreement(self):
        rng = random.Random("routes-compare")
        for _ in range(20):
            compare_routes(rand_zx(rng, nonzero=True))
