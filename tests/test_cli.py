"""Command-line surface: exit codes, report text, CSV/JSONL schemas,
environment seeding, and byte-level determinism."""

import hashlib
import io
import json
import math
import os
import sys
from fractions import Fraction

import pytest

from lynesslab import cli, flow
from lynesslab.cli import main
from lynesslab.invariants import level_signature
from lynesslab.lyness import Params, float_point, orbit


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


def test_verify_rejects_low_dimension(capsys):
    code = main(["verify", "--k", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "k >= 3" in err


def test_verify_rejects_bad_inputs(capsys):
    assert main(["verify", "--k", "3", "--a", "1/0"]) == 2
    assert main(["verify", "--k", "3", "--a", "-1"]) == 2
    assert main(["verify", "--k-range", "8..3"]) == 2
    assert main(["verify", "--k-range", "abc"]) == 2
    assert main(["verify", "--k", "3", "--trials", "0"]) == 2
    capsys.readouterr()


def test_verify_json_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--k", "3", "--trials", "5", "--json", str(report)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(report.read_text())
    assert data["ok"] is True
    assert data["ks"] == [3]
    assert any(s["name"] == "V1 invariance" and s["status"] == "ok" for s in data["suites"])


def test_verify_json_to_an_unwritable_path_exits_two_before_printing(tmp_path, capsys):
    report = tmp_path / "no" / "such" / "report.json"
    assert main(["verify", "--k", "3", "--trials", "2", "--json", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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


def test_orbit_rejects_bad_requests(capsys):
    assert main(["orbit", "--k", "3", "--x0", "1,2"]) == 2
    assert main(["orbit", "--k", "3", "--x0", "1,0,3"]) == 2
    assert main(["orbit", "--k", "3", "--x0", "1,1,3", "--steps", "-1"]) == 2
    assert main(["orbit", "--k", "3", "--x0", "1,1,3", "--proj", "1,2"]) == 2
    assert main(["orbit", "--k", "3", "--x0", "1,1,3", "--proj", "1,2,2"]) == 2
    assert main(["orbit", "--k", "3", "--x0", "1,1,3", "--proj", "1,2,9"]) == 2
    capsys.readouterr()


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
    assert captured.err == "warning: trajectory truncated near the domain boundary at t=0.0\n"
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


def test_rk45_flow_from_near_the_boundary_is_truncated_not_an_error(capsys):
    code = main(["flow", "--k", "3", "--x0", "1e-11,1e-11,1e-11", "--method", "rk45"])
    err = capsys.readouterr().err
    assert code == 0
    assert [line.split(" ", 1)[0] for line in err.splitlines()] == ["warning:"]


@pytest.mark.parametrize("x0", ["1e-300,1,1", "1,1e-300,1"])
def test_rk45_flow_where_the_solver_cannot_take_a_step_is_truncated_not_an_error(x0, tmp_path, capsys):
    out_file = tmp_path / "rk45.csv"
    code = main(["flow", "--k", "3", "--x0", x0, "--method", "rk45", "--dt", "0.1", "--t-max", "1",
                 "--out", str(out_file)])
    err = capsys.readouterr().err
    assert code == 0
    assert "warning: trajectory truncated near the domain boundary at t=0.0" in err.splitlines()
    [row] = _lines(out_file)[1:]
    assert all(math.isfinite(float(c)) for c in row.split(","))


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_flow_whose_field_divides_by_an_underflowed_product_is_truncated(method, capsys):
    # x2 x3 underflows to 0.0 at this start, and the field divides by it
    code = main(["flow", "--k", "3", "--x0", "1e300,1e-200,1e-200", "--dt", "0.1", "--t-max", "0.2",
                 "--method", method])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "warning: trajectory truncated near the domain boundary at t=0.0\n"
    assert captured.out.splitlines()[1:] == ["max relative drift = n/a (fewer than 2 samples)"]


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
    capsys.readouterr()


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


def test_figures_preset_three_row_count(tmp_path, capsys):
    out_file = tmp_path / "fig3.csv"
    code = main(["figures", "--which", "3", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    assert len(_lines(out_file)) == 10002  # header plus 10001 states


def test_figures_rejects_unwritable_paths(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "f.csv"
    assert main(["figures", "--which", "2", "--out", str(missing_dir)]) == 2
    capsys.readouterr()


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


def test_usage_errors_exit_with_two(capsys):
    assert main([]) == 2
    assert main(["orbit"]) == 2  # missing required flags
    assert main(["figures", "--which", "9"]) == 2
    capsys.readouterr()


def test_seeded_verify_output_is_reproducible(capsys):
    assert main(["verify", "--k", "5", "--trials", "20", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--k", "5", "--trials", "20", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--k", "3", "--x0", "1e400,1,1", "--steps", "2"],
        ["orbit", "--k", "3", "--a", "1e400", "--x0", "1,1,1", "--steps", "2"],
        ["orbit", "--k", "3", "--x0", "1e-400,1,1", "--steps", "2"],
        ["flow", "--k", "3", "--x0", "1e400,1,1"],
        ["flow", "--k", "3", "--a", "1e400", "--x0", "1,1,1"],
        ["flow", "--k", "3", "--x0", "1,1,1", "--t-max", "inf"],
        ["flow", "--k", "3", "--x0", "1,1,1", "--dt", "nan"],
        ["flow", "--k", "3", "--x0", "1,1,1", "--dt", "0.3", "--t-max", "1"],
        ["flow", "--k", "3", "--x0", "1,1,1", "--dt", "2", "--t-max", "1"],
        ["flow", "--k", "3", "--x0", "1,1,1", "--dt", "0.3", "--t-max", "1", "--method", "rk45"],
        # exponent literals past the 4300-digit input bound, refused before any bigint work
        ["verify", "--k", "3", "--a", "1e5000", "--trials", "1"],
        ["orbit", "--k", "3", "--x0", "1,1,1e99999", "--steps", "1", "--exact"],
        ["orbit", "--k", "3", "--x0", "1,1,1e999999", "--steps", "1", "--exact"],
        ["orbit", "--k", "3", "--x0", "1,1,3", "--proj", "1,x,3"],
        ["reduce", "--k", "5", "--x0", "1,2,3,4,5", "--steps", "-1"],
        ["reduce", "--k", "4", "--x0", "1,2,3,4"],
        ["reduce", "--k", "3", "--x0", "1,0,1"],
        # every coordinate is in float64, but their product, which the levels divide by, is 0
        ["orbit", "--k", "30", "--x0", ",".join(["1e-11"] * 30), "--steps", "2"],
        ["orbit", "--k", "17", "--x0", ",".join(["1e-20"] * 17), "--steps", "2"],
        ["flow", "--k", "30", "--x0", ",".join(["1e-11"] * 30), "--dt", "0.1", "--t-max", "0.2"],
    ],
    ids=[
        "orbit-x0-overflow", "orbit-a-overflow", "orbit-x0-underflow", "flow-x0-overflow",
        "flow-a-overflow", "flow-tmax-inf", "flow-dt-nan", "flow-partial-step",
        "flow-dt-beyond-tmax", "flow-rk45-partial-step", "verify-a-exponent-5000",
        "orbit-x0-exponent-99999", "orbit-x0-exponent-999999", "orbit-proj-not-integer",
        "reduce-negative-steps", "reduce-k4", "reduce-x0-zero",
        "orbit-k30-product-underflow", "orbit-k17-product-underflow", "flow-k30-product-underflow",
    ],
)
def test_float_inputs_outside_the_run_exit_two(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--json" if argv[0] == "verify" else "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


RK45_REACHED = ["flow", "--k", "3", "--a", "1", "--x0", "1,1,3", "--dt", "0.1", "--t-max", "0.3",
                "--method", "rk45", "--out", "OUT"]


# sha256 of stdout followed by the --out file (OUT) for small runs of each
# command; refactors of the formula path must leave these bytes unchanged.
PINNED_OUTPUTS = {
    "orbit-exact-k5": (
        ["orbit", "--k", "5", "--a", "1", "--x0", "1,2,3,4,5", "--steps", "40", "--exact"],
        "a8112c7d498eada3bf38cb349c16ecc577f863c5e44bf93d16cff1d52778b318",
    ),
    "orbit-jsonl-k6": (
        ["orbit", "--k", "6", "--a", "1/2", "--x0", "1,2,3,4,5,6", "--steps", "300",
         "--format", "jsonl"],
        "1eec31cd915f3a861ac91d5e23f2c937c53f9401d14a3588c4751ed6af0b49be",
    ),
    "reduce-k3-stdout": (
        ["reduce", "--k", "3", "--a", "1", "--x0", "1,1,3", "--steps", "20"],
        "31fe59f23afd9d2207f1cdf64e7d3daad33ff028795116da7eb948238407fdd0",
    ),
    "reduce-k5-csv": (
        ["reduce", "--k", "5", "--a", "1", "--x0", "1,2,3,4,5", "--steps", "12", "--out", "OUT"],
        "0c07364f6afa62e1a8a9aad777479665bfc5a895e6f959534fee04cce13b428f",
    ),
    "flow-k5-csv": (
        ["flow", "--k", "5", "--a", "1", "--x0", "1,2,3,4,5", "--dt", "1e-2", "--t-max", "1",
         "--out", "OUT"],
        "d5a2c41c8274a3d9666aea11f1acdaeb1193ea9fd9e21d214b6e9b754a1050c2",
    ),
    # RK4 truncated at the boundary at t=0.93 and at t=0.07, and an RK45 trace
    "flow-k5-rk4-truncated": (
        ["flow", "--k", "5", "--a", "0", "--x0", "6.129,11.671,5.067,5.27,1.238", "--dt", "0.01",
         "--t-max", "1", "--out", "OUT"],
        "91cb2e42d5222d423fa275619005e60c2951e71013476e08977e027c08ff2553",
    ),
    "flow-k3-rk4-truncated": (
        ["flow", "--k", "3", "--a", "0", "--x0", "0.108,0.124,0.248", "--dt", "0.01",
         "--t-max", "1", "--out", "OUT"],
        "447efaab7a390c283ad29af97ee92bd120647fa95a512a1978e3aeea67ed91d3",
    ),
    "flow-k3-rk45": (
        ["flow", "--k", "3", "--a", "1", "--x0", "1,1,3", "--dt", "1e-2", "--t-max", "0.5",
         "--method", "rk45", "--out", "OUT"],
        "e7f82768f6128b0ba015a538eeafa1c6cc81ef60deb54933dac18efd24ebfebd",
    ),
    # RK45 whose last grid time 3 * 0.1 passes t_max = 0.3, so the row takes
    # the time the solver reached
    "flow-k3-rk45-reached": (RK45_REACHED, "3da8011b26dd690c5819632603a140c144a8a85f8db6c6513dfe45a749bfd250"),
    # k=7 with a non-integer a: middle components with non-empty skip chains
    "flow-k7-rational-a": (
        ["flow", "--k", "7", "--a", "7/10", "--x0", "6,6.2,6.1,6.3,5.9,6.2,6.05", "--dt", "1e-4",
         "--t-max", "1e-2", "--out", "OUT"],
        "2c97c54395be7d683556309fc1df7fa196a68759deed534b5139a1adabb4dbee",
    ),
    "verify-json": (
        ["verify", "--k-range", "3..8", "--trials", "2", "--json", "OUT"],
        "83fa5a1e8e42752c9f9f0327ce2dd4e0467c97c864669c06203b8ac523ca681a",
    ),
    # exact rows whose levels are confirmed against the previous row: even k
    # with a non-unit a, and odd k projected to JSONL
    "orbit-exact-k4-rational-a": (
        ["orbit", "--k", "4", "--a", "7/10", "--x0", "1,2,3,4", "--steps", "60", "--exact"],
        "cd6d39b0f0a881e94f36da739e36b7927f3f5a3eb9cafeb9e12338e0990ed2c7",
    ),
    "orbit-exact-k5-proj-jsonl": (
        ["orbit", "--k", "5", "--a", "1", "--x0", "1,2,3,4,5", "--steps", "120", "--exact",
         "--proj", "1,3,5", "--format", "jsonl"],
        "8219325203a31373d17ff5f3c05c801f927b1ad20b9b49866da76af81b6fef51",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_output_bytes_match_pinned_digests(name, tmp_path, capsys):
    argv, digest = PINNED_OUTPUTS[name]
    out_file = tmp_path / "out"
    assert main([str(out_file) if a == "OUT" else a for a in argv]) == 0
    h = hashlib.sha256(capsys.readouterr().out.encode())
    if "OUT" in argv:
        h.update(out_file.read_bytes())
    assert h.hexdigest() == digest


def test_flow_time_cells_are_plain_floats(tmp_path, capsys):
    out = tmp_path / "rk45.csv"
    assert main([str(out) if a == "OUT" else a for a in RK45_REACHED]) == 0
    capsys.readouterr()
    times = [line.split(",")[0] for line in _lines(out)[1:]]
    assert [float(t) for t in times] == [0.0, 0.1, 0.2, 0.3]


def _reference_rows(p, x0, steps, proj, fmt):
    """The orbit rows cell by cell: str of each value, json.dumps per JSONL row."""
    header = ["n"] + [f"x{i}" for i in proj] + ["V1", "V2"] + ["V3", "signZ"] * (p.k % 2)
    lines = [",".join(header)] if fmt == "csv" else []
    for n, x in enumerate(orbit(p, x0, steps)):
        sig = level_signature.kernel(p, x)
        row = [n] + [x[i - 1] for i in proj] + [sig.v1, sig.v2]
        row = [str(c) for c in row + ([sig.v3, sig.z_sign] if p.k % 2 else [])]
        lines.append(",".join(row) if fmt == "csv" else json.dumps(dict(zip(header, row))))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("k, a, proj", [(5, 0, (1, 2, 3, 4, 5)), (6, 1e-3, (6, 1, 2)), (3, 1e6, (2, 3, 1))])
def test_orbit_rows_equal_str_cells_and_json_dumps(k, a, proj, fmt):
    p, x0 = float_point(Params(k, a), [1e-4 * 3**i for i in range(k)])
    fh = io.StringIO()
    cli._write_orbit(p, x0, 200, proj, fmt, fh)
    assert fh.getvalue() == _reference_rows(p, x0, 200, proj, fmt)


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
