import pytest

from dilaton_steering import sweep


@pytest.fixture
def perturbed_s_forward(monkeypatch):
    """Shift the closed-form forward steerability that `verify_grid` sees by 1e-8."""
    original = sweep.closed_measure_arrays

    def shifted(*args):
        vals = original(*args)
        vals["s_forward"] = vals["s_forward"] + 1e-8
        return vals

    monkeypatch.setattr(sweep, "closed_measure_arrays", shifted)
