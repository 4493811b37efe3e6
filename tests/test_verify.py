"""Identity suites: each drawn point is validated once per trial, and the
shift law evaluates the field once at x and once at F(x)."""

import pytest

from lynesslab import lyness, verify
from lynesslab.symmetry import symmetry_vector
from lynesslab.verify import run_suites


@pytest.mark.parametrize("k", [3, 5, 6])
def test_suites_validate_each_drawn_point_once(k, monkeypatch):
    calls = []
    real = lyness.require_point

    def counting(p, x):
        calls.append(x)
        return real(p, x)

    for module in (lyness, verify):
        monkeypatch.setattr(module, "require_point", counting)
    results = run_suites(k, 1, 2, 0)
    assert all(r.failures == 0 for r in results)
    assert len(calls) == sum(r.trials for r in results)


@pytest.mark.parametrize("k", [3, 8])
def test_shift_law_evaluates_the_field_twice_per_trial(k, monkeypatch):
    calls = []
    real = symmetry_vector.kernel

    def counting(p, x):
        calls.append(x)
        return real(p, x)

    monkeypatch.setattr(symmetry_vector, "kernel", counting)
    checks = verify._checks_for
    monkeypatch.setattr(verify, "_checks_for", lambda p: [c for c in checks(p) if c[0] == "shift law"])
    trials = 3
    [result] = run_suites(k, 1, trials, 0)
    assert (result.name, result.trials, result.failures) == ("shift law", trials, 0)
    assert len(calls) == 2 * trials
