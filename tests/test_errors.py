import numpy as np
import pytest

from betaplane.errors import ValidationError, require_finite


@pytest.mark.parametrize("value", [0.0, -3, 2.5, 1 + 2j, np.float64(-1.0), np.array(4.0),
                                   np.array([1.0, -2.0]), np.zeros((2, 3), dtype=complex), np.array([])])
def test_finite_accepted(value):
    require_finite("x", value)


@pytest.mark.parametrize("value, message", [
    (np.nan, "x must be finite, got nan"),
    (-np.inf, "x must be finite, got -inf"),
    (complex(1.0, np.inf), "x must be finite, got (1+infj)"),
    (np.array(np.nan), "x must be finite, got nan"),
    (np.array([1.0, 2.0, np.nan, np.inf]), "x must be finite, got nan at index 2"),
    (np.array([[1.0, 2.0], [3.0, -np.inf]]), "x must be finite, got -inf at index 3"),
    (np.array([1j, complex(np.nan, 0.0)]), "x must be finite, got (nan+0j) at index 1"),
])
def test_first_bad_entry_named(value, message):
    with pytest.raises(ValidationError) as exc:
        require_finite("x", value)
    assert str(exc.value) == message


@pytest.mark.parametrize("value, message", [
    (0.0, "x must be finite and positive, got 0.0"),
    (-2, "x must be finite and positive, got -2"),
    (np.inf, "x must be finite and positive, got inf"),
    (np.array([1.0, 0.0, np.nan]), "x must be finite and positive, got 0.0 at index 1"),
])
def test_positive(value, message):
    with pytest.raises(ValidationError) as exc:
        require_finite("x", value, positive=True)
    assert str(exc.value) == message
    require_finite("x", np.array([1e-300, 2.0]), positive=True)
