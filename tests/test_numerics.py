import math

import pytest

from isodense.numerics import (
    bisect,
    golden_min,
    grow_bracket,
)


def test_bisect_sqrt2():
    root = bisect(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_bisect_symmetric_mass_cubic():
    # 2*beta^3/3 + 2*beta - 1 = 0 is the symmetric mass equation for p=2, a=1
    root = bisect(lambda b: 2.0 * b ** 3 / 3.0 + 2.0 * b - 1.0, 0.0, 2.0)
    w = 0.75 + 0.25 * math.sqrt(25.0)
    exact = w ** (1 / 3) - w ** (-1 / 3)
    assert root == pytest.approx(exact, abs=1e-12)
    assert root == pytest.approx(0.46622, abs=1e-5)


def test_bisect_identity_and_errors():
    assert bisect(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(ValueError):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_deterministic():
    f = lambda x: x ** 3 - 0.7
    assert bisect(f, 0.0, 2.0) == bisect(f, 0.0, 2.0)


def test_bisect_stable_under_bracket_choice():
    f = lambda x: x ** 3 - 0.7
    root = 0.7 ** (1 / 3)
    for hi in (1.0, 2.0, 10.0, 100.0):
        assert bisect(f, 0.0, hi) == pytest.approx(root, rel=1e-12)


def test_grow_bracket():
    hi = grow_bracket(lambda x: x - 40.0, 1.0)
    assert hi >= 40.0


def test_golden_min_quadratic():
    x, fx = golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0, tol=1e-12)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert fx == pytest.approx(0.0, abs=1e-17)


def test_golden_min_constant():
    x, fx = golden_min(lambda x: 5.0, 0.0, 1.0)
    assert fx == 5.0
    assert 0.0 <= x <= 1.0


def test_golden_min_boundary():
    x, _ = golden_min(lambda x: x, 0.0, 1.0, tol=1e-12)
    assert x == 0.0
