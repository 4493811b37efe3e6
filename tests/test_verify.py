"""Identity suites: each drawn point is validated once per trial."""

import pytest

from lynesslab import lyness, verify
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
