import numpy as np
import pytest

from quditgates.errors import NotInvertible
from quditgates.kernel import (
    equal_up_to_global_phase,
    is_diagonal,
    is_unitary,
    mod_inv,
)


def test_mod_inv_small_cases():
    assert mod_inv(1, 7) == 1
    assert mod_inv(2, 7) == 4
    assert mod_inv(4, 9) == 7
    for m in (2, 3, 5, 7):
        for a in range(1, m):
            assert (a * mod_inv(a, m)) % m == 1


def test_mod_inv_rejects_non_units():
    with pytest.raises(NotInvertible):
        mod_inv(0, 5)
    with pytest.raises(NotInvertible):
        mod_inv(3, 9)


def test_is_diagonal_and_unitary():
    assert is_diagonal(np.diag([1.0, 2.0, 3.0]))
    assert not is_diagonal(np.array([[1.0, 1e-6], [0.0, 1.0]]))
    assert is_unitary(np.eye(3))
    assert not is_unitary(np.diag([1.0, 0.5]))


def test_equal_up_to_global_phase():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ok, c = equal_up_to_global_phase(np.exp(0.7j) * a, a)
    assert ok
    assert abs(c - np.exp(0.7j)) < 1e-9
    ok, _ = equal_up_to_global_phase(a + 0.1, a)
    assert not ok
