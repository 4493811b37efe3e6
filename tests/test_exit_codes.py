"""Every generated argv of `orbit`, `flow`, `reduce` and `verify` exits 0, 1
or 2 with no traceback, and an exit 2 is one `error: ` line on stderr with
nothing on stdout and no output file (derandomized, so every run draws the
same argv)."""

import contextlib
import io
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cli_cases import Case, Run, check  # noqa: E402
from lynesslab.cli import main  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150, database=None)

valid = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100).map(str)
# about one literal in twelve is bad, so that many runs get to do their work
literals = st.integers(0, 11).flatmap(
    lambda i: st.sampled_from(["0", "-1", "1/0", "", "1e400", "inf"]) if i == 0 else valid
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["orbit", "flow", "reduce", "verify"]))
    k = draw(st.sampled_from(range(1, 8)))
    argv = [command, "--k", str(k), "--a", draw(literals)]
    if command == "verify":
        return argv + ["--trials", str(draw(st.integers(-1, 2))), "--seed", "1"]
    # a coordinate count that is right, one short or one over
    count = max(k + draw(st.sampled_from([0, 0, -1, 1])), 0)
    argv += ["--x0", ",".join(draw(st.lists(literals, min_size=count, max_size=count)))]
    if command == "flow":
        # RK4 only, over a short time: RK45 near the boundary has no bound on its time
        dt = draw(st.sampled_from(["0.01", "0.025", "0", "-0.01"]))
        return argv + ["--method", "rk4", "--dt", dt, "--t-max", draw(st.sampled_from(["0.05", "0.01"]))]
    argv += ["--steps", str(draw(st.integers(-3, 20)))]
    if command == "orbit" and draw(st.booleans()):
        argv.append("--exact")
    return argv


@SETTINGS
@given(argv=argvs())
def test_every_argv_exits_zero_one_or_two(argv, tmp_path_factory):
    # a fresh directory per example: a function-scoped tmp_path is shared by all of them
    tmpdir = tmp_path_factory.mktemp("argv")
    argv = argv + ["--json" if argv[0] == "verify" else "--out", str(tmpdir / "out")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    check(Case(" ".join(argv), stderr=None, code=code), Run(code, stdout.getvalue(), stderr.getvalue()), tmpdir)
