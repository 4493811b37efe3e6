"""Command-line surface: exit codes, report text, CSV/JSONL schemas,
environment seeding, and byte-level determinism."""

import io
import json
import math
import os
import sys
from fractions import Fraction

import pytest

from cli_cases import CASES, argv
from lynesslab import cli, flow
from lynesslab.cli import main
from lynesslab.invariants import level_signature
from lynesslab.lyness import Params, float_point, orbit, require_point


def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_verify_range_passes(capsys):
    code = main(["verify", "--k-range", "3..8", "--a", "1", "--trials", "100", "--seed", "42"])
    out = capsys.readouterr().out
    assert code == 0
    assert "summary:" in out
    assert "FAILED" not in out


def test_verify_reports_parity_gaps(capsys):
    code = main(["verify", "--k", "4", "--a", "7/3", "--trials", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "V3 invariance: n/a (even k)" in out


def test_verify_json_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--k", "3", "--trials", "5", "--json", str(report)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(report.read_text())
    assert data["ok"] is True
    assert data["ks"] == [3]
    assert any(s["name"] == "V1 invariance" and s["status"] == "ok" for s in data["suites"])


def test_orbit_exact_csv_holds_levels_constant(capsys):
    code = main(["orbit", "--k", "3", "--a", "1", "--x0", "1,1,3", "--steps", "10", "--exact"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "n,x1,x2,x3,V1,V2,V3,signZ"
    assert len(rows) == 12
    v1_col = [r.split(",")[4] for r in rows[1:]]
    assert v1_col == ["32"] * 11
    signs = [r.split(",")[7] for r in rows[1:]]
    assert signs == ["1", "-1"] * 5 + ["1"]


def test_orbit_projection_and_jsonl(capsys):
    code = main(
        ["orbit", "--k", "5", "--a", "1", "--x0", "1,2,3,4,5", "--steps", "2",
         "--proj", "1,3,5", "--format", "jsonl", "--exact"]
    )
    out = capsys.readouterr().out
    assert code == 0
    objs = [json.loads(line) for line in out.splitlines()]
    assert len(objs) == 3
    assert list(objs[0]) == ["n", "x1", "x3", "x5", "V1", "V2", "V3", "signZ"]
    assert objs[0]["V1"] == "96"


def test_flow_prints_a_drift_summary(capsys):
    code = main(["flow", "--k", "4", "--a", "4", "--x0", "1,2,3,4", "--dt", "1e-3", "--t-max", "2"])
    out = capsys.readouterr().out
    assert code == 0
    drift_lines = [line for line in out.splitlines() if line.startswith("relative drift")]
    assert len(drift_lines) == 2
    worst = max(float(line.rsplit("=", 1)[1]) for line in drift_lines)
    assert worst <= 1e-6


def test_a_flow_truncated_at_its_first_step_reports_no_drift(capsys):
    code = main(["flow", "--k", "5", "--a", "1", "--x0", "1/100,50,1,70,2", "--dt", "0.01",
                 "--t-max", "0.05"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "warning: trajectory truncated (domain boundary or float64 range) at t=0.0\n"
    assert captured.out.splitlines()[1:] == ["max relative drift = n/a (fewer than 2 samples)"]


def test_flow_writes_the_sampled_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    code = main(
        ["flow", "--k", "4", "--a", "4", "--x0", "1,2,3,4", "--dt", "1e-2",
         "--t-max", "1", "--out", str(out_file)]
    )
    capsys.readouterr()
    assert code == 0
    rows = _lines(out_file)
    assert rows[0] == "t,x1,x2,x3,x4,V1,V2"
    assert len(rows) == 102
    assert rows[1].startswith("0.0,1.0,2.0,3.0,4.0,")


def test_reduce_replays_the_double_step(capsys):
    code = main(["reduce", "--k", "3", "--a", "1", "--x0", "1,1,3", "--steps", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kappa = 1/8" in out
    assert "semiconjugacy residual over 4 double-steps: 0" in out
    rows = [line for line in out.splitlines() if "," in line]
    assert rows[0] == "n,y1,y2"
    assert rows[1] == "0,1,3"
    assert rows[2] == "1,3,9"


def test_reduce_rejects_unsupported_dimension(capsys):
    assert main(["reduce", "--k", "4", "--a", "1", "--x0", "1,2,3,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order reduction covers k in {3, 5}, got k=4\n"


def test_figures_preset_two_schema(tmp_path, capsys):
    out_file = tmp_path / "fig2.csv"
    code = main(["figures", "--which", "2", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    rows = _lines(out_file)
    assert rows[0] == "n,x1,x2,x3,x4,x5,V1,V2,V3,signZ"
    assert len(rows) == 5002  # header plus 5001 states
    signs = [r.rsplit(",", 1)[1] for r in rows[1:]]
    assert all(u != v for u, v in zip(signs, signs[1:]))


def test_figures_preset_one_writes_orbit_and_flow(tmp_path, capsys):
    out_file = tmp_path / "fig1.csv"
    code = main(["figures", "--which", "1", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    orbit_rows = _lines(out_file)
    assert orbit_rows[0] == "n,x1,x2,x3,V1,V2"
    assert len(orbit_rows) == 2002
    flow_rows = _lines(tmp_path / "fig1.flow.csv")
    assert flow_rows[0] == "t,x1,x2,x3,V1,V2"
    assert len(flow_rows) == 10002


def test_figure_one_leaves_no_file_when_its_flow_file_cannot_be_opened(tmp_path, capsys):
    (tmp_path / "fig.flow.csv").mkdir()
    assert main(["figures", "--which", "1", "--out", str(tmp_path / "fig.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert [path.name for path in tmp_path.iterdir()] == ["fig.flow.csv"]


def test_figures_preset_three_row_count(tmp_path, capsys):
    out_file = tmp_path / "fig3.csv"
    code = main(["figures", "--which", "3", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    assert len(_lines(out_file)) == 10002  # header plus 10001 states


def test_output_files_are_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["orbit", "--k", "5", "--a", "1", "--x0", "1,2,3,4,5",
                     "--steps", "500", "--out", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_environment_variable_seeds_verification(capsys, monkeypatch):
    monkeypatch.setenv("LYNESS_SEED", "7")
    assert main(["verify", "--k", "3", "--trials", "5"]) == 0
    assert "seed=7" in capsys.readouterr().out
    monkeypatch.setenv("LYNESS_SEED", "not-a-number")
    assert main(["verify", "--k", "3", "--trials", "5"]) == 2
    capsys.readouterr()
    monkeypatch.delenv("LYNESS_SEED")
    assert main(["verify", "--k", "3", "--trials", "5"]) == 0
    assert "seed=0" in capsys.readouterr().out


def test_explicit_seed_beats_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("LYNESS_SEED", "7")
    assert main(["verify", "--k", "3", "--trials", "5", "--seed", "11"]) == 0
    assert "seed=11" in capsys.readouterr().out


def test_seeded_verify_output_is_reproducible(capsys):
    assert main(["verify", "--k", "5", "--trials", "20", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--k", "5", "--trials", "20", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_flow_time_cells_are_plain_floats(tmp_path, capsys):
    assert main(argv(CASES["flow-k3-rk45-reached"], tmp_path)) == 0
    capsys.readouterr()
    times = [line.split(",")[0] for line in _lines(tmp_path / "out")[1:]]
    assert [float(t) for t in times] == [0.0, 0.1, 0.2, 0.3]


def _exact_levels(p, x) -> list:
    """V1, V2 and, for odd k, V3 and sign Z at x over Fraction, written out
    from the formulas of the paper (S = a + x1 + ... + xk, "odd" and "even"
    the 1-based coordinate positions)."""
    a, x = Fraction(p.a), [Fraction(c) for c in x]
    total, prod = a + sum(x), math.prod(x)
    v1 = total * math.prod(c + 1 for c in x) / prod
    v2 = (total + x[0] * x[-1]) * math.prod(1 + u + v for u, v in zip(x, x[1:])) / prod
    if p.k % 2 == 0:
        return [v1, v2]
    odd, even = (math.prod(c * (c + 1) for c in x[start::2]) for start in (0, 1))
    z = odd - total * even
    return [v1, v2, (odd + total * even) / prod, (z > 0) - (z < 0)]


def _reference_rows(p, x0, steps, proj, fmt):
    """The orbit rows cell by cell: str of each value, json.dumps per JSONL row;
    with the number of rows written. A float row whose float levels are not
    finite or raise takes its exact levels, each rounded once, and the rows
    end before one whose rounded level overflows."""
    header = ["n"] + [f"x{i}" for i in proj] + ["V1", "V2"] + ["V3", "signZ"] * (p.k % 2)
    lines = [",".join(header)] if fmt == "csv" else []
    rows = 0
    count = 2 + p.k % 2  # the levels among the cells
    for n, x in enumerate(orbit(p, x0, steps)):
        try:
            sig = level_signature.kernel(p, x)
            levels = [sig.v1, sig.v2] + ([sig.v3, sig.z_sign] if p.k % 2 else [])
        except ArithmeticError:  # a float row's product underflows; exact rows never raise
            levels = [math.nan]
        if isinstance(p.a, float) and not all(map(math.isfinite, levels[:count])):
            exact = _exact_levels(p, x)
            try:
                levels = [float(v) for v in exact[:count]] + exact[count:]
            except OverflowError:
                break
        row = [str(c) for c in [n] + [x[i - 1] for i in proj] + levels]
        lines.append(",".join(row) if fmt == "csv" else json.dumps(dict(zip(header, row))))
        rows += 1
    return "".join(line + "\n" for line in lines), rows


_SMALL = None  # stands for x0 = (1e-4 * 3**i for i < k)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("k, a, x0, steps, proj", [
    pytest.param(5, 0, _SMALL, 200, (1, 2, 3, 4, 5), id="5-0-proj0"),
    pytest.param(6, 1e-3, _SMALL, 200, (6, 1, 2), id="6-0.001-proj1"),
    pytest.param(3, 1e6, _SMALL, 200, (2, 3, 1), id="3-1000000.0-proj2"),
    pytest.param(3, Fraction(1), (Fraction(1, 2), 2, Fraction(7, 3)), 40, (1, 2, 3), id="exact-k3"),
    pytest.param(5, Fraction(4, 3), (1, Fraction(2, 5), 3, 4, 5), 30, (5, 1, 3), id="exact-k5"),
    pytest.param(2, 1e-2, _SMALL, 50, (1, 2), id="k2"),
    pytest.param(4, 2.0, _SMALL, 0, (1, 2, 3), id="steps-0"),
    # the first image overflows: x0's levels are inf already
    pytest.param(3, 1.0, (1e-300, 1e300, 1e300), 10, (1, 2, 3), id="float-overflow"),
    # the float levels overflow in an intermediate product at rows 4, 12 and 20
    # of an orbit whose coordinates stay finite: those rows take the exact
    # levels, rounded, and all 21 rows are written
    pytest.param(3, 1.0, (1.0, 1e-100, 1.0), 20, (1, 2, 3), id="levels-overflow"),
    # the float levels are nan and inf, and x0's exact V1 is about 2e500: no row
    pytest.param(3, 1.0, (1e200, 1e200, 1e-300), 3, (1, 2, 3), id="nonfinite-then-zero-division"),
    # the float levels are nan in rows 0 and 1 and inf in row 2; the rounded
    # exact levels 3e300, 4e300, 1e300 are finite, and all 3 rows are written
    pytest.param(3, 1.0, (1e300, 1e300, 1e300), 2, (1, 2, 3), id="nonfinite-x0"),
    # rows 0 and 1 finite; row 2's float levels divide by a coordinate product
    # that underflows, and rows 4 and 5 overflow: those take the exact levels,
    # and all 6 rows are written
    pytest.param(3, 0.0, (1e100, 1e-20, 1e-160), 5, (1, 2, 3), id="zero-division-row-2"),
    # the float levels of rows 1 to 4, 9 and 10 are nan; rounded from the exact
    # ones they are finite, and all 11 rows are written
    pytest.param(3, 1.0, (1e-150, 1.0, 1e150), 10, (3, 1, 2), id="nonfinite-row-1"),
])
def test_orbit_rows_equal_str_cells_and_json_dumps(k, a, x0, steps, proj, fmt, capsys):
    x0 = [1e-4 * 3**i for i in range(k)] if x0 is _SMALL else x0
    p = Params(k, a)
    p, x0 = (p, require_point(p, x0)) if isinstance(a, Fraction) else float_point(p, x0)
    fh = io.StringIO()
    cli._write_orbit(p, x0, steps, proj, fmt, fh)
    text, rows = _reference_rows(p, x0, steps, proj, fmt)
    assert fh.getvalue() == text
    assert "nan" not in text and "inf" not in text
    warning = (f"warning: float orbit truncated (domain boundary or float64 range) at step {rows}\n"
               if rows <= steps else "")
    assert capsys.readouterr().err == warning


@pytest.mark.parametrize("limit", [1, 2, 1024])
def test_a_level_prints_as_str_whatever_texts_were_kept(limit):
    """`_level_text` keeps float texts and starts again past `limit` of them,
    and reuses the text of the last other level while the next one is that
    object; every level, repeated or not, still prints as its own str: 0.0
    and -0.0 apart, ints and Fractions by str, nan as nan."""
    text = cli._level_text(limit)
    third, big = Fraction(7, 3), 10**30
    levels = [0.0, -0.0, 1, 1.0, math.nan, -3, 0, third, 2.5, 1e300, 5e-324]
    # a repeated object, an equal but distinct Fraction (and int), and the two zeros in turn
    repeats = [third, third, Fraction(14, 6), Fraction(7, 3), third, big, big, big + 1 - 1,
               0.0, 0.0, -0.0, -0.0, 0.0, None, None]
    for v in levels + levels[::-1] + [-0.0, 0.0, 1.0, 1, 2.5, 2.5] + repeats:
        assert text(v) == str(v) and type(text(v)) is str


def test_float_runs_compute_with_a_in_float64_and_print_it_as_given(monkeypatch, capsys):
    seen = []
    # where the float runs compute: the orbit writer and the RK4 driver
    for module, name in ((flow, "_rk4"), (cli, "_write_orbit")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda p, *rest, _real=real, **kw: seen.append(p.a) or _real(p, *rest, **kw)
        )
    orbit = ["orbit", "--k", "3", "--a", "7/10", "--x0", "1,1,3", "--steps", "3"]
    assert main(orbit) == 0
    assert main(["flow", "--k", "3", "--a", "7/10", "--x0", "1,1,3", "--dt", "1e-2",
                 "--t-max", "0.1"]) == 0
    assert main(orbit + ["--exact"]) == 0
    assert main(["figures", "--which", "2", "--out", os.devnull]) == 0
    assert seen == [0.7, 0.7, Fraction(7, 10), 1.0]
    assert [type(a) for a in seen] == [float, float, Fraction, float]
    assert "flow k=3 a=7/10 method=" in capsys.readouterr().out


def test_exact_values_of_any_height_are_printed(tmp_path, capsys):
    # V1 at this x0 has about 8000 digits, past the default int->str limit;
    # the 4000-digit numerator itself still parses under that limit.
    x0 = "7" * 4000 + "/3,2,3,4,5"
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "tall.csv"
    assert main(["orbit", "--k", "5", "--a", "1", "--x0", x0, "--steps", "6", "--exact",
                 "--out", str(out)]) == 0
    assert sys.get_int_max_str_digits() == limit
    rows = [line.split(",") for line in _lines(out)[1:]]
    assert [r[0] for r in rows] == [str(n) for n in range(7)]
    assert len(rows[0][6]) > limit
    assert len({r[6] for r in rows}) == 1
    assert main(["reduce", "--k", "5", "--a", "1", "--x0", x0, "--steps", "2"]) == 0
    assert sys.get_int_max_str_digits() == limit
    assert "double-steps: 0\n" in capsys.readouterr().out
    # An exit-2 path from inside the lifted region restores the limit too.
    missing = str(tmp_path / "missing" / "tall.csv")
    assert main(["orbit", "--k", "5", "--x0", x0, "--steps", "1", "--exact", "--out", missing]) == 2
    assert sys.get_int_max_str_digits() == limit
    assert capsys.readouterr().err.startswith("error: cannot write")
    # Input keeps the limit: a numerator past it is a usage error.
    assert main(["orbit", "--k", "3", "--x0", "7" * 5000 + ",1,1", "--exact"]) == 2
    assert "not a rational literal" in capsys.readouterr().err
