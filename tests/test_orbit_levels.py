"""The levels of one orbit's rows (`invariants.orbit_levels`). An exact orbit
carries row 0's levels to every row, by the paper's first integrals and the
alternation of sign Z, and computes them again on its last state; those must
equal `level_signature.kernel` on every row, in value and in type. An orbit
moved off its level fails that last-row check: `orbit_signature` raises
VerificationError, and the `orbit` command writes its rows, then one
`error:` line, with exit code 1. A float orbit computes every row's levels."""

import itertools
import math
import types
from fractions import Fraction

import pytest

from lynesslab import cli, lyness
from lynesslab.cli import main
from lynesslab.dynamics import orbit_signature
from lynesslab.errors import VerificationError
from lynesslab.invariants import LevelSignature, eval_z, level_signature, level_signatures, orbit_levels
from lynesslab.lyness import Params

ORBIT = ["orbit", "--k", "5", "--a", "1", "--x0", "1,2,3,4,5", "--steps", "20", "--exact"]


def _kernel_levels(trace):
    """The trace's levels equal the kernel's on each state, in value and type."""
    want = [level_signature.kernel(trace.params, x) for x in trace.states]
    assert trace.signatures == want
    for g, w in zip(trace.signatures, want):
        assert [type(g), *map(type, g)] == [type(w), *map(type, w)]
    return trace.signatures


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("n", [40, -40], ids=["forward", "backward"])
def test_carried_levels_are_the_kernel_levels_on_every_row(k, n):
    for a in (Fraction(1), Fraction(7, 10), 0):
        p = Params(k, a)
        x0 = tuple(Fraction(i + 2, i % 3 + 1) for i in range(k))
        got = _kernel_levels(orbit_signature(p, x0, n))
        assert len(got) == 41
        if k % 2:  # off the hypersurface, sign Z alternates strictly
            assert all(s.z_sign == got[0].z_sign * (-1) ** j != 0 for j, s in enumerate(got))


def test_orbits_on_the_invariant_hypersurface_carry_z_sign_zero():
    for p, x0 in ((Params(3, Fraction(7)), (1, 1, 3)), (Params(5, Fraction(5)), (1, 1, 1, 1, 3))):
        assert eval_z.kernel(p, x0) == 0
        for n in (12, -12):
            assert {s.z_sign for s in _kernel_levels(orbit_signature(p, x0, n))} == {0}


def test_an_exact_run_of_no_steps_computes_row_0(capsys):
    assert _kernel_levels(orbit_signature(Params(5, Fraction(1)), (1, 2, 3, 4, 5), 0))
    assert main(ORBIT[:-3] + ["--steps", "0", "--exact"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    levels = level_signature.kernel(Params(5, Fraction(1)), (1, 2, 3, 4, 5))
    assert row.split(",")[-4:] == list(map(str, levels))


def _moved_orbit(at, real=lyness.orbit.kernel):
    """`orbit.kernel` with state `at` moved off its level: its last coordinate
    gains 1/1000, and the states after it are the orbit of the moved one."""

    def kernel(p, x0, n):
        states = list(itertools.islice(real(p, x0, n), at + 1))
        x = states.pop()
        yield from states
        yield from real(p, x[:-1] + (x[-1] + Fraction(1, 1000),), n - at)

    return kernel


@pytest.mark.parametrize("at", [7, 20], ids=["a middle state", "only the last state"])
def test_an_orbit_moved_off_its_level_fails_the_last_row_check(monkeypatch, capsys, at):
    monkeypatch.setattr(cli, "orbit", types.SimpleNamespace(kernel=_moved_orbit(at)))
    assert main(ORBIT) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 22  # the header and every row, written before the check
    assert err.count("\n") == 1 and err.startswith("error: the exact orbit's last state, after 20 steps, is off")


@pytest.mark.parametrize("at", [7, 20], ids=["a middle state", "only the last state"])
def test_orbit_signature_raises_on_an_orbit_moved_off_its_level(monkeypatch, at):
    monkeypatch.setattr(lyness, "orbit", _moved_orbit(at))
    with pytest.raises(VerificationError, match="levels: V1, V2, V3$"):
        orbit_signature(Params(5, Fraction(1)), (1, 2, 3, 4, 5), 20)


def test_an_orbit_on_its_v_levels_but_on_the_wrong_side_fails(monkeypatch):
    # F^2 keeps V1, V2, V3 and sign Z, so after an odd number of its steps only sign Z is off
    real = lyness.orbit.kernel
    monkeypatch.setattr(lyness, "orbit", lambda p, x0, n: itertools.islice(real(p, x0, 2 * n), 0, None, 2))
    p, x0 = Params(5, Fraction(1)), (1, 2, 3, 4, 5)
    assert len(orbit_signature(p, x0, 20).states) == 21
    with pytest.raises(VerificationError, match="levels: sign Z$"):
        orbit_signature(p, x0, 21)


def test_a_float_orbit_computes_every_row(monkeypatch):
    monkeypatch.setattr(lyness, "orbit", _moved_orbit(7))
    got = _kernel_levels(orbit_signature(Params(5, 1.0), (1.0, 2.0, 3.0, 4.0, 5.0), 20))
    assert math.isclose(got[6].v1, got[0].v1, rel_tol=1e-12)
    assert not math.isclose(got[7].v1, got[0].v1, rel_tol=1e-6)


def test_level_signatures_and_orbit_levels_share_one_float_level_rule():
    """A float state takes the kernel's levels where they are finite, else the
    kernel's over `Fraction`, each level rounded once, and the levels end
    before a state whose rounded level overflows; with an exact a, an exact
    state among them takes its exact levels."""
    exact = (1, Fraction(1, 2), 3)
    # nan levels, finite rounded ones; finite levels; a rounded V1 of about 2e500; never reached
    floats = [(1e300, 1e300, 1e300), (1.0, 2.0, 3.0), (1e200, 1e200, 1e-300), (1.0, 1.0, 1.0)]
    for a in (Fraction(1), 1.0):
        p = Params(3, a)
        rounded = level_signature.kernel(Params(3, Fraction(a)), tuple(map(Fraction, floats[0])))
        want = [LevelSignature(*map(float, rounded[:3]), rounded[3]), level_signature.kernel(p, floats[1])]
        assert not math.isfinite(level_signature.kernel(p, floats[0]).v1)
        assert list(level_signatures(p, floats)) == want
        assert list(orbit_levels(p, floats)) == list(zip(floats, want))
    p = Params(3, Fraction(1))
    got = list(level_signatures(p, [exact, *floats[:2], exact, *floats[2:]]))
    assert got == [level_signature.kernel(p, exact), *want, level_signature.kernel(p, exact)]
    assert [type(sig.v1) for sig in got] == [Fraction, float, float, Fraction]
