import math
import random
import sys

import pytest

from cutoffwave import (ReactionSpec, cubic_kpp, fisher, gamma_rate,
                        lambda_plus, make_cutoff, v_upper_bound, validate_kpp,
                        by_name)


def test_fisher_values():
    f = fisher()
    assert f.f(0.5) == pytest.approx(0.25, abs=1e-15)
    assert f.f(0.0) == 0.0
    assert f.f(1.0) == 0.0
    assert f.fprime_at_1 == -1.0
    assert f.fdoubleprime_at_1 == -2.0


def test_fisher_sup():
    f = fisher()
    assert f.sup_f(0.3) == 0.25
    assert f.sup_f(0.5) == 0.25
    assert f.sup_f(0.8) == pytest.approx(0.8 * 0.2, abs=1e-15)


def test_cubic_values():
    f = cubic_kpp()
    assert f.f(0.5) == pytest.approx(0.375, abs=1e-15)
    assert f.f(1.0) == 0.0
    assert f.fprime_at_1 == -2.0
    assert f.fdoubleprime_at_1 == -6.0


@pytest.mark.parametrize("spec", [fisher(), cubic_kpp()])
def test_coefficients_are_f_about_one(spec):
    # f(1 - w) is the polynomial sum c_k w^k, up to the rounding of 1 - w
    rng = random.Random(7)
    for _ in range(100):
        w = rng.random()
        poly = sum(c * w ** k for k, c in enumerate(spec.coefficients, 1))
        assert abs(poly - spec.f(1.0 - w)) <= 4.0 * sys.float_info.epsilon


@pytest.mark.parametrize("coefficients", [(), (0.0, 1.0), (-1.0,),
                                          (math.nan,), (1.0, math.inf)])
def test_spec_refuses_bad_coefficients(coefficients):
    with pytest.raises(ValueError):
        ReactionSpec(name="bad", f=fisher().f, coefficients=coefficients,
                     sup_f=fisher().sup_f)


@pytest.mark.parametrize("spec", [fisher(), cubic_kpp()])
def test_kpp_bounds_on_dense_grid(spec):
    validate_kpp(spec, n=10_000)


def test_by_name():
    assert by_name("fisher").name == "fisher"
    assert by_name("cubic").name == "cubic"
    with pytest.raises(ValueError):
        by_name("fishy")


def test_cutoff_gating():
    cut = make_cutoff(fisher(), 0.5)
    assert cut.rate(0.5) == 0.0
    assert cut.rate(0.6) == pytest.approx(0.24, abs=1e-15)
    assert cut.rate(0.1) == 0.0
    assert cut.f_c_plus == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("v", [math.nan, -1.0])
def test_lambda_plus_refuses_nan_or_negative_speed(v):
    with pytest.raises(ValueError):
        lambda_plus(fisher(), v)


@pytest.mark.parametrize("u_c", [0.0, 1.0, -0.2, 1.5])
def test_cutoff_rejects_bad_threshold(u_c):
    with pytest.raises(ValueError):
        make_cutoff(fisher(), u_c)


@pytest.mark.parametrize("u_c", [0.1, 0.5, 0.9])
def test_cutoff_jump_from_above(u_c):
    cut = make_cutoff(fisher(), u_c)
    for h in (1e-3, 1e-6, 1e-9):
        assert cut.rate(u_c + h) == pytest.approx(cut.f_c_plus, abs=3 * h)
    assert cut.rate(u_c) == 0.0


def test_lambda_plus_values():
    assert lambda_plus(fisher(), 0.0) == pytest.approx(1.0, abs=1e-15)
    assert lambda_plus(fisher(), 2.0) == pytest.approx(math.sqrt(2) - 1.0,
                                                       abs=1e-15)
    assert lambda_plus(cubic_kpp(), 0.0) == pytest.approx(math.sqrt(2),
                                                          abs=1e-15)


def test_lambda_plus_decreasing_in_v():
    f = fisher()
    vals = [lambda_plus(f, 0.1 * k) for k in range(40)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        lambda_plus(f, -0.1)


def test_gamma_rate():
    assert gamma_rate(fisher()) == pytest.approx(math.sqrt(2) - 1.0, abs=1e-15)
    assert gamma_rate(cubic_kpp()) == pytest.approx(math.sqrt(3) - 1.0,
                                                    abs=1e-15)


def test_v_upper_bound_values():
    f = fisher()
    assert v_upper_bound(make_cutoff(f, 0.5)) == pytest.approx(
        math.sqrt(0.5), abs=1e-15)
    assert v_upper_bound(make_cutoff(f, 0.25)) == pytest.approx(1.0, abs=1e-15)
    assert v_upper_bound(make_cutoff(f, 0.01)) == pytest.approx(5.0, abs=1e-15)


@pytest.mark.parametrize("u_c", [1e-6, 1e-3, 0.2, 0.5, 0.9, 1 - 1e-6])
def test_v_upper_bound_finite_positive(u_c):
    v = v_upper_bound(make_cutoff(fisher(), u_c))
    assert math.isfinite(v) and v > 0.0
