"""Norm calculus on the discrete measure: modular, Luxemburg norm, duality,
and the power-sum root kernel behind the norm.

luxemburg_norm solves modular(u/s) = 1 with the safeguarded Newton
power-sum kernel to a relative accuracy of 1e-12 and returns a norm on the
upper side of the root, so every inequality below is asserted with a 1e-9
relative slack unless the construction makes it exact.  The kernel itself
is checked against scipy's brentq on the same equation.
"""

import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexspec import (
    conjugate,
    constant_exponent,
    exponent_field,
    holder_constant,
    luxemburg_norm,
    modular,
)
from vexspec.spaces import _power_sum_root

SLACK = 1e-9


@st.composite
def cell_data(draw, max_cells=48, with_second=False):
    """Random (u, p, vol) on a 1D or 2D cell layout, amplitudes around 1."""
    if draw(st.booleans()):
        shape = (draw(st.integers(2, max_cells)),)
    else:
        shape = (draw(st.integers(2, 12)), draw(st.integers(2, 12)))
    n = int(np.prod(shape))
    seed = draw(st.integers(0, 2**32 - 1))
    r = np.random.default_rng(seed)
    amp = 10.0 ** draw(st.floats(-2.0, 2.0))
    u = amp * r.standard_normal(shape)
    lo = draw(st.floats(1.05, 3.0))
    width = draw(st.floats(0.0, 2.0))
    p = exponent_field(lo + width * r.random(shape))
    vol = draw(st.floats(1e-3, 2.0))
    if with_second:
        return u, amp * r.standard_normal(shape), p, vol
    return u, p, vol


@given(cell_data())
@settings(max_examples=200, deadline=None)
def test_unit_ball_trichotomy(data):
    # the norm and the modular sit on the same side of 1
    u, p, vol = data
    r = modular(u, p, vol)
    norm = luxemburg_norm(u, p, vol).norm
    if r < 1.0 - SLACK:
        assert norm <= 1.0 + SLACK
    if r > 1.0 + SLACK:
        assert norm >= 1.0 - SLACK
    if norm > 1.0 + SLACK:
        assert r >= 1.0 - SLACK


@given(cell_data())
@settings(max_examples=200, deadline=None)
def test_power_bracket_between_norm_and_modular(data):
    u, p, vol = data
    r = modular(u, p, vol)
    norm = luxemburg_norm(u, p, vol).norm
    if norm == 0.0:
        assert r == 0.0
        return
    if norm <= 1.0:
        assert norm**p.hi <= r * (1.0 + SLACK)
        assert r <= norm**p.lo * (1.0 + SLACK)
    else:
        assert norm**p.lo <= r * (1.0 + SLACK)
        assert r <= norm**p.hi * (1.0 + SLACK)


@given(cell_data())
@settings(max_examples=200, deadline=None)
def test_normalized_function_has_unit_modular(data):
    u, p, vol = data
    res = luxemburg_norm(u, p, vol)
    if res.norm == 0.0:
        return
    r = modular(u / res.norm, p, vol)
    # the returned endpoint always satisfies the defining inequality exactly
    assert r <= 1.0
    assert r >= 1.0 - 1e-10


@given(cell_data())
@settings(max_examples=200, deadline=None)
def test_modular_root_brackets_norm(data):
    u, p, vol = data
    r = modular(u, p, vol)
    norm = luxemburg_norm(u, p, vol).norm
    if r == 0.0:
        assert norm == 0.0
        return
    lo = min(r ** (1.0 / p.lo), r ** (1.0 / p.hi))
    hi = max(r ** (1.0 / p.lo), r ** (1.0 / p.hi))
    assert lo * (1.0 - SLACK) <= norm <= hi * (1.0 + SLACK)


@given(cell_data(with_second=True))
@settings(max_examples=200, deadline=None)
def test_holder_inequality(data):
    u, v, p, vol = data
    pairing = float(np.sum(np.abs(u * v)) * vol)
    nu = luxemburg_norm(u, p, vol).norm
    nv = luxemburg_norm(v, conjugate(p), vol).norm
    assert pairing <= holder_constant(p) * nu * nv * (1.0 + SLACK) + 1e-300


@given(cell_data(), st.floats(-1e3, 1e3))
@settings(max_examples=150, deadline=None)
def test_norm_homogeneity(data, t):
    u, p, vol = data
    base = luxemburg_norm(u, p, vol).norm
    scaled = luxemburg_norm(t * u, p, vol).norm
    assert scaled == pytest.approx(abs(t) * base, rel=1e-9, abs=1e-12)


@given(cell_data())
@settings(max_examples=100, deadline=None)
def test_constant_exponent_closed_form(data):
    u, p, vol = data
    c = 0.5 * (p.lo + p.hi)
    pc = constant_exponent(c, u.shape)
    expected = float(np.sum(np.abs(u) ** c) * vol) ** (1.0 / c)
    got = luxemburg_norm(u, pc, vol).norm
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-15)


def test_luxemburg_against_scalar_root_finder(rng):
    """Independent oracle: brentq on a loop-computed modular of u/s."""
    from scipy.optimize import brentq

    u = rng.standard_normal(40) * 3.0
    p = exponent_field(1.5 + np.linspace(0.0, 1.0, 40))
    vol = 1.0 / 40

    def loop_modular(scale):
        total = 0.0
        for i in range(40):
            total += abs(u[i] / scale) ** p.values[i] * vol
        return total - 1.0

    root = brentq(loop_modular, 1e-8, 1e8, xtol=1e-14, rtol=1e-14)
    got = luxemburg_norm(u, p, vol).norm
    assert got == pytest.approx(root, rel=1e-10)


@st.composite
def power_sums(draw):
    """sum(a t^p) = sum(b t^q) on 1-500 cells, amplitudes over 10^(+-8).

    Either a fixed target (b = [target], q = [0]) with increasing or
    decreasing powers, or two sums with the exponents ordered on every
    cell, superlinear (q above p) or sublinear (q below p), with a gap of
    at least 0.1 so that the root stays within float range.  Some cells
    carry a zero coefficient, as the profiles of the solvers do.
    """
    n = draw(st.integers(1, 500))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coefficients():
        c = 10.0 ** draw(st.floats(-8.0, 8.0)) * (0.01 + r.random(n))
        c[r.random(n) < draw(st.floats(0.0, 0.5))] = 0.0
        c[r.integers(n)] = 10.0 ** draw(st.floats(-8.0, 8.0))
        return c

    a = coefficients()
    p = draw(st.floats(1.05, 3.0)) + draw(st.floats(0.0, 2.0)) * r.random(n)
    form = draw(st.sampled_from(["increasing", "decreasing", "superlinear", "sublinear"]))
    if form in ("increasing", "decreasing"):
        b, q = np.array([10.0 ** draw(st.floats(-8.0, 8.0))]), np.zeros(1)
        if form == "decreasing":
            p = -p
    else:
        b = coefficients()
        q = p.max() + draw(st.floats(0.1, 1.0)) + draw(st.floats(0.0, 2.0)) * r.random(n)
        if form == "sublinear":
            p, q = q, p
    return form, a, p, b, q


def log_sum_exp(c, e):
    """s -> log sum(c e^{e s}) over the positive c, shifted by the largest term."""
    keep = c > 0.0
    log_c, e = np.log(c[keep]), e[keep]

    def at(s):
        x = log_c + e * s
        top = x.max()
        return top + np.log(np.sum(np.exp(x - top)))

    return at


def reference_log_root(a, p, b, q):
    """brentq on log sum(a e^{p s}) - log sum(b e^{q s}), bracketed by doubling."""
    from scipy.optimize import brentq

    left, right = log_sum_exp(a, p), log_sum_exp(b, q)

    def f(s):
        return left(s) - right(s)

    lo, hi = -1.0, 1.0
    while np.sign(f(lo)) == np.sign(f(hi)):
        lo, hi = 2.0 * lo, 2.0 * hi
    return brentq(f, lo, hi, xtol=1e-14, maxiter=500)


def root_alone(a, p, b, q, **kwargs):
    """(t, evaluations) of one equation, solved as a stack of one row."""
    t, evals = _power_sum_root(a[None], p, b, q, **kwargs)
    return t[0], evals[0]


@given(power_sums())
@settings(max_examples=300, deadline=None)
def test_power_sum_root_matches_brentq(problem):
    form, a, p, b, q = problem
    t, evals = root_alone(a, p, b, q)
    s = reference_log_root(a, p, b, q)
    assert abs(np.log(t) - s) <= 1e-11 * max(1.0, abs(s))
    # bisection took 40-57 evaluations; Newton in log t needs a handful
    assert evals <= (6 if form in ("increasing", "decreasing") else 8)
    # rows solved in lockstep: scaled copies of a (so each row has its own root and
    # its own evaluation count) against one shared right side, then per-row right sides
    rows = a * np.array([1.0, 1e-3, 1e3, 0.5])[:, None]
    ts, counts = _power_sum_root(rows, p, b, q)
    assert ts.shape == counts.shape == (4,)
    for row, t_row, n_row in zip(rows, ts, counts):
        alone = root_alone(row, p, b, q)
        assert (t_row, n_row) == alone
        s_row = reference_log_root(row, p, b, q)
        assert abs(np.log(t_row) - s_row) <= 1e-11 * max(1.0, abs(s_row))
    per_row_b = np.stack([b, 2.0 * b, 0.25 * b, b])
    ts, counts = _power_sum_root(rows, p, per_row_b, q)
    for row, b_row, t_row, n_row in zip(rows, per_row_b, ts, counts):
        assert (t_row, n_row) == root_alone(row, p, b_row, q)
    # rows that keep different cells: each has its own exponent range, so its own curvature
    keep = np.zeros((3, a.size), dtype=bool)
    keep[0], keep[1, : (a.size + 1) // 2], keep[2, a.size // 2 :] = True, True, True
    keep[:, int(np.argmax(a))] = True
    rows = np.where(keep, a, 0.0)
    ts, counts = _power_sum_root(rows, p, b, q)
    for row, t_row, n_row in zip(rows, ts, counts):
        assert (t_row, n_row) == root_alone(row, p, b, q)


@given(power_sums(), st.lists(st.floats(-30.0, 30.0), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_power_sum_root_warm_start_matches_cold_start(problem, starts):
    """A start s0 near or far from the root ends on the cold-start root.

    Both roots sit within the kernel's accuracy, which the rounding of the
    log sums sets: over 6,000 draws the warm root was within
    463 * eps * max(1, |log t|) of the cold one (median 0), so the bound
    below leaves a factor of ten.
    """
    form, a, p, b, q = problem

    def close(t_warm, t_cold):
        s = np.log(t_cold)
        return abs(np.log(t_warm) - s) <= 1e-12 * max(1.0, abs(s))

    t, _ = root_alone(a, p, b, q)
    t_warm, evals = root_alone(a, p, b, q, s0=starts[0])
    assert close(t_warm, t)
    s = reference_log_root(a, p, b, q)
    assert abs(np.log(t_warm) - s) <= 1e-11 * max(1.0, abs(s))
    assert evals <= 8  # 7 at most over 6,000 draws
    # a stack with one start per row, and with one start shared by every row
    rows = a * np.array([1.0, 1e-3, 1e3, 0.5])[:, None]
    cold, _ = _power_sum_root(rows, p, b, q)
    for s0 in (starts, starts[1]):
        ts, counts = _power_sum_root(rows, p, b, q, s0=s0)
        row_starts = s0 if isinstance(s0, list) else [s0] * len(rows)
        for row, start, t_row, n_row, t_cold in zip(rows, row_starts, ts, counts, cold):
            assert (t_row, n_row) == root_alone(row, p, b, q, s0=start)
            assert close(t_row, t_cold)


def test_power_sum_root_rejects_degenerate_sums():
    one, two = np.ones(3), np.full(3, 2.0)
    with pytest.raises(ValueError, match="positive coefficient"):
        _power_sum_root(np.zeros((1, 3)), two, np.ones(1), np.zeros(1))
    with pytest.raises(ValueError, match="do not cross"):
        _power_sum_root(one[None], two, 2.0 * one, two)


def test_zero_function_norm():
    p = constant_exponent(2.0, (7,))
    res = luxemburg_norm(np.zeros(7), p, 0.1)
    assert res.norm == 0.0 and res.iterations == 0


def _raise_timeout(signum, frame):
    raise TimeoutError("luxemburg_norm did not return within 10 s")


@pytest.mark.parametrize("t", [5e-324, 1e-322, 1e-320, 1e-310])
def test_subnormal_norm_terminates_on_the_upper_side(rng, t):
    """A norm below the normal range stays positive and is raised to modular <= 1.

    Scaled by 5e-324 every value is 0 or one subnormal step; the raise loop
    once looped forever there, so the call runs under a 10 s alarm.
    """
    u = t * rng.standard_normal(6)
    p = exponent_field(1.5 + rng.random(6))
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(10)
    try:
        norm = luxemburg_norm(u, p, 1e-3).norm
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert norm > 0.0
    with np.errstate(over="ignore"):
        assert modular(u / norm, p, 1e-3) <= 1.0


def test_modular_additivity_in_cells(rng):
    """The modular is a plain weighted sum, so it splits over any partition."""
    u = rng.standard_normal(30)
    p = exponent_field(1.2 + rng.random(30))
    vol = 0.05
    whole = modular(u, p, vol)
    parts = modular(u[:11], exponent_field(p.values[:11]), vol) + modular(
        u[11:], exponent_field(p.values[11:]), vol
    )
    assert whole == pytest.approx(parts, rel=1e-14)


def test_conjugate_exponent_identity(rng):
    p = exponent_field(1.1 + 3.0 * rng.random(25))
    pc = conjugate(p)
    assert np.allclose(1.0 / p.values + 1.0 / pc.values, 1.0, rtol=0, atol=1e-14)
    back = conjugate(pc)
    assert np.allclose(back.values, p.values, rtol=1e-12)


def test_product_exponent(rng):
    from vexspec import product_exponent

    a = exponent_field(1.2 + rng.random(9))
    b = exponent_field(1.5 + rng.random(9))
    prod = product_exponent(a, b)
    assert np.array_equal(prod.values, a.values * b.values)
    with pytest.raises(ValueError, match="mismatch"):
        product_exponent(a, exponent_field(np.full(8, 2.0)))


def test_holder_constant_range(rng):
    for _ in range(20):
        p = exponent_field(1.05 + 4.0 * rng.random(12))
        c = holder_constant(p)
        assert 1.0 <= c < 2.0
    assert holder_constant(constant_exponent(3.0, (5,))) == pytest.approx(1.0, abs=1e-14)


def test_exponent_field_validation():
    with pytest.raises(ValueError, match=r"exceed 1 everywhere, offending cell \(1,\)$"):
        exponent_field([2.0, 1.0, 3.0])
    with pytest.raises(ValueError, match=r"offending cell \(1, 0\)$"):
        exponent_field([[2.0, 2.5], [0.5, 2.2]])
    with pytest.raises(ValueError, match="at least one cell"):
        exponent_field([])
    with pytest.raises(ValueError, match="finite"):
        exponent_field([2.0, np.inf])
    f = exponent_field([[2.0, 2.5], [3.0, 2.2]])
    assert f.lo == 2.0 and f.hi == 3.0 and not f.is_constant
    assert constant_exponent(2.0, (4, 4)).is_constant


def test_norm_input_validation():
    p = constant_exponent(2.0, (5,))
    with pytest.raises(ValueError, match="mismatch"):
        modular(np.ones(4), p, 0.1)
    with pytest.raises(ValueError, match="mismatch"):
        modular(np.ones(5), p, np.ones(4))
    with pytest.raises(ValueError, match="finite"):
        luxemburg_norm(np.array([1.0, np.nan, 0.0, 0.0, 0.0]), p, 0.1)
    for tol in (0.0, math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            luxemburg_norm(np.ones(5), p, 0.1, tol=tol)
    for vol in (-1.0, 0.0, math.nan, math.inf, np.array([0.1, 0.1, -0.1, 0.1, 0.1])):
        for f in (modular, luxemburg_norm):
            with pytest.raises(ValueError, match="cell volumes must be finite and positive"):
                f(np.linspace(0.5, 2.5, 5), p, vol)
