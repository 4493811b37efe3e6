"""Every case of the `lyness-lab` command line, written once, and the rules
all cases share (`check`). A case is an argv, split on spaces, where OUT is
a fresh output path; the sha256 of stdout followed by each file written (OUT,
then OUT.flow.csv for figure 1); a regex for each stderr line (by default no
line; None skips the check); the module the run needs; and the exit code.
tests/test_cli_cases.py runs every case in process. This script runs every
case in a fresh process, 60 s at most each, skips and names those whose
module this interpreter lacks, and exits 1 if any case fails:

    python tests/cli_cases.py              # python -m lynesslab.cli, src on PYTHONPATH
    python tests/cli_cases.py lyness-lab   # an installed console script
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

PYTHON = [sys.executable, "-m", "lynesslab.cli"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


class Case(NamedTuple):
    argv: str
    digest: str | None = None
    stderr: tuple | None = ()
    needs: str | None = None
    code: int = 0


class Run(NamedTuple):
    code: int
    stdout: str
    stderr: str


def _error(argv: str, line: str = "error: ") -> Case:
    return Case(argv, stderr=(line,), code=2)


T0 = (r"warning: trajectory truncated \(domain boundary or float64 range\) at t=0\.0$",)
S0 = (r"warning: float orbit truncated \(domain boundary or float64 range\) at step 0$",)
WROTE = (r"figure \d: wrote \S+/out(, \S+/out\.flow\.csv)?$",)
K30 = ",".join(["1e-11"] * 30)

CASES = {
    # small runs of each command; refactors of the formula path leave these bytes unchanged
    "orbit-exact-k5": Case("orbit --k 5 --a 1 --x0 1,2,3,4,5 --steps 40 --exact",
                           "a8112c7d498eada3bf38cb349c16ecc577f863c5e44bf93d16cff1d52778b318"),
    "orbit-jsonl-k6": Case("orbit --k 6 --a 1/2 --x0 1,2,3,4,5,6 --steps 300 --format jsonl",
                           "1eec31cd915f3a861ac91d5e23f2c937c53f9401d14a3588c4751ed6af0b49be"),
    "reduce-k3-stdout": Case("reduce --k 3 --a 1 --x0 1,1,3 --steps 20",
                             "31fe59f23afd9d2207f1cdf64e7d3daad33ff028795116da7eb948238407fdd0"),
    "reduce-k5-csv": Case("reduce --k 5 --a 1 --x0 1,2,3,4,5 --steps 12 --out OUT",
                          "0c07364f6afa62e1a8a9aad777479665bfc5a895e6f959534fee04cce13b428f"),
    "flow-k5-csv": Case("flow --k 5 --a 1 --x0 1,2,3,4,5 --dt 1e-2 --t-max 1 --out OUT",
                        "d5a2c41c8274a3d9666aea11f1acdaeb1193ea9fd9e21d214b6e9b754a1050c2"),
    # RK4 truncated at the boundary at t=0.93 and at t=0.07, and an RK45 trace
    "flow-k5-rk4-truncated": Case(
        "flow --k 5 --a 0 --x0 6.129,11.671,5.067,5.27,1.238 --dt 0.01 --t-max 1 --out OUT",
        "91cb2e42d5222d423fa275619005e60c2951e71013476e08977e027c08ff2553", (r"warning: .* at t=0\.93$",)),
    "flow-k3-rk4-truncated": Case(
        "flow --k 3 --a 0 --x0 0.108,0.124,0.248 --dt 0.01 --t-max 1 --out OUT",
        "447efaab7a390c283ad29af97ee92bd120647fa95a512a1978e3aeea67ed91d3", (r"warning: .* at t=0\.07$",)),
    "flow-k3-rk45": Case("flow --k 3 --a 1 --x0 1,1,3 --dt 1e-2 --t-max 0.5 --method rk45 --out OUT",
                         "e7f82768f6128b0ba015a538eeafa1c6cc81ef60deb54933dac18efd24ebfebd", needs="scipy"),
    # RK45 whose last grid time 3 * 0.1 passes t_max = 0.3: the row takes the time the solver reached
    "flow-k3-rk45-reached": Case("flow --k 3 --a 1 --x0 1,1,3 --dt 0.1 --t-max 0.3 --method rk45 --out OUT",
                                 "3da8011b26dd690c5819632603a140c144a8a85f8db6c6513dfe45a749bfd250", (), "scipy"),
    # k=7 with a non-integer a: middle components with non-empty skip chains
    "flow-k7-rational-a": Case(
        "flow --k 7 --a 7/10 --x0 6,6.2,6.1,6.3,5.9,6.2,6.05 --dt 1e-4 --t-max 1e-2 --out OUT",
        "2c97c54395be7d683556309fc1df7fa196a68759deed534b5139a1adabb4dbee"),
    "verify-json": Case("verify --k-range 3..8 --trials 2 --json OUT",
                        "83fa5a1e8e42752c9f9f0327ce2dd4e0467c97c864669c06203b8ac523ca681a"),
    # exact rows whose levels are confirmed against the previous row: even k, a != 1; odd k, JSONL
    "orbit-exact-k4-rational-a": Case("orbit --k 4 --a 7/10 --x0 1,2,3,4 --steps 60 --exact",
                                      "cd6d39b0f0a881e94f36da739e36b7927f3f5a3eb9cafeb9e12338e0990ed2c7"),
    "orbit-exact-k5-proj-jsonl": Case(
        "orbit --k 5 --a 1 --x0 1,2,3,4,5 --steps 120 --exact --proj 1,3,5 --format jsonl",
        "8219325203a31373d17ff5f3c05c801f927b1ad20b9b49866da76af81b6fef51"),
    # exact rows over each coordinate's own denominator: k=7 with a rational a; a start with
    # Z = 0, so every signZ is 0; even k with a = 0 to a file; digests taken before they were
    "orbit-exact-k7-rational-a": Case("orbit --k 7 --a 7/3 --x0 1,2,3,4,5,6,7 --steps 40 --exact",
                                      "ec4f7c762b43e3b554bb9a752a4aafcddcf4993c07b645d1c6f737b386420ebd"),
    "orbit-exact-k3-z-zero": Case("orbit --k 3 --a 1 --x0 2,3/2,3/2 --steps 30 --exact",
                                  "6bd34a91b0134740881fcb688830300211f665d4e64e021f599a79191e5797c5"),
    "orbit-exact-k6-a-0": Case("orbit --k 6 --a 0 --x0 1,2,3,4,5,6 --steps 40 --exact --out OUT",
                               "13ab2b2147010380fe476ce6585e4ef9ac416d8c3c635feb08d803b70b79a25a"),
    "verify-k3-5": Case("verify --k-range 3..5 --trials 1 --seed 1",
                        "41341df98c6bb3942b81bd84a214937b07b6c6a79f9566c3f05ad34076b03f1c"),
    # traces every suite residual past the k range the other tests reach
    "verify-k9-12": Case("verify --k-range 9..12 --trials 1 --seed 1",
                         "82e3b00848db35c70e16b9c4fa0558731e0aacade8be34ec316b1dd26900f371"),
    # the det and sign suites' exact forms past k = 9; digest taken while both ran on `Cleared` images
    "verify-k10-12-seed-3": Case("verify --k-range 10..12 --trials 2 --seed 3",
                                 "1b3c39ccb82361b0e07747e20a4d45378984ac7d8d71baf956b9dae41a9d6d3f"),
    # the default 100 trials per suite
    "verify-json-default-trials": Case("verify --k-range 3..8 --json OUT",
                                       "1894490a6b057fc428769afbd8f037e8d55e5077a1c9cf99fd6462752533cb40"),
    "verify-json-seed-1": Case("verify --k-range 3..8 --trials 2 --seed 1 --json OUT",
                               "6553ea8dddf360ba3ed8a48220c7c30b2fca2016f302cacdde2e4cc93295b0f1"),
    # a rational a and a = 0, past k = 8; digests taken before points were drawn as integers
    "verify-json-k3-9-rational-a": Case("verify --k-range 3..9 --trials 3 --seed 5 --a 7/3 --json OUT",
                                        "63131be0b1567a5667ece3f5b71294fa5aa32aed5dd9a6b183d961d711832c96"),
    "verify-json-k3-9-a-0": Case("verify --k-range 3..9 --trials 3 --seed 5 --a 0 --json OUT",
                                 "ac7c3d66914d5a917c685a4108ff07f009e00d674a2cf830c344e3a601e95335"),
    "flow-k4-csv": Case("flow --k 4 --a 4 --x0 1,2,3,4 --t-max 1 --out OUT",
                        "40feae563784953876bf36485cd04d9cf58d0776ba92460e796de428f6d19986"),
    "orbit-exact-k5-200": Case("orbit --k 5 --a 1 --x0 1,2,3,4,5 --steps 200 --exact --out OUT",
                               "c40551988e2c885459cefa444bfa593d44bd14551c4c70ed8670feacd4e51a86"),
    "reduce-k5-100": Case("reduce --k 5 --a 1 --x0 1,2,3,4,5 --steps 100 --out OUT",
                          "73f0509a32668f5c93b3b78cdda900fb0d0e6ef776be2c24832fe90674b74f11"),
    "reduce-k3-150": Case("reduce --k 3 --a 1 --x0 1,1,3 --steps 150",
                          "0ab1e884c6045c65da438942c79e2be913b04e38beb3775fe89475ad607ec230"),
    # each figure file's sha256 is the benchmark's FIGURE_SHA256 (figure 1: of both files in one)
    "figures-1": Case("figures --which 1 --out OUT",
                      "96f769c0d6191a5e10a48760bc44c6ac5cfe61b853129fd227ec8d991b8e8043", WROTE),
    "figures-2": Case("figures --which 2 --out OUT",
                      "f5e953d217165b7e09a8e24be0710bae13c100195fb09236036c7ecc6fc08cec", WROTE),
    "figures-3": Case("figures --which 3 --out OUT",
                      "c1790f68464edb2cc7af712212d95940798c2086457797a8715ab15e633c5711", WROTE),
    # RK45 from near the boundary, and where the solver cannot take a step
    "flow-rk45-near-boundary": Case("flow --k 3 --x0 1e-11,1e-11,1e-11 --method rk45",
                                    "4e8a2e277e06b9eb57f1fe265675f5e86d511924e6c084e7cfa1fb0183522aaa", T0, "scipy"),
    "flow-rk45-no-step-x1": Case("flow --k 3 --x0 1e-300,1,1 --method rk45 --dt 0.1 --t-max 1 --out OUT",
                                 "eec8fe04610ed04cfaf0c205c33ec2274fe6f2bf06f7e1c00f5ea5f9ba3cbd37", T0, "scipy"),
    "flow-rk45-no-step-x2": Case("flow --k 3 --x0 1,1e-300,1 --method rk45 --dt 0.1 --t-max 1 --out OUT",
                                 "7961ea4e0acd1b678d1a8e8dca51dde9a15a160c4f43fa267c06a79a52de3d07", T0, "scipy"),
    # flows that end at t=0 where the field at x0 is nan (inf / inf), inf or divides by an
    # underflowed x2 x3; x0's V1 at 1e300,1e-200,1e-200 is about 1e700, so no sample
    "flow-t0-rounded-rk4": Case("flow --k 3 --x0 1e200,1e200,1e200 --dt 0.1 --t-max 0.2 --method rk4 --out OUT",
                                "efebc81c3fcf8b818ee9dfdfa48ae8cb5d72292f7f61cda6e7088641b73b1cee", T0),
    "flow-t0-rounded-rk45": Case("flow --k 3 --x0 1e200,1e200,1e200 --dt 0.1 --t-max 0.2 --method rk45 --out OUT",
                                 "84fa9dc368135d6e180b4115f1479541746e153eefc028a42b76142b55075e7f", T0, "scipy"),
    "flow-t0-field-inf-rk45": Case("flow --k 3 --x0 1e300,1,1 --dt 0.1 --t-max 0.2 --method rk45 --out OUT",
                                   "9fe74c724b242eb00e42d7e7adf630ad618f642d1d42bbe9cdcb963f238d108e", T0, "scipy"),
    "flow-t0-overflow-rk4": Case("flow --k 3 --x0 1e300,1e-200,1e-200 --dt 0.1 --t-max 0.2 --method rk4 --out OUT",
                                 "720bf9a372211d307f75b47f9d74d4d24f9546c7599fc20ab832d040f909c9e7", T0),
    "flow-t0-overflow-rk45": Case("flow --k 3 --x0 1e300,1e-200,1e-200 --dt 0.1 --t-max 0.2 --method rk45 --out OUT",
                                  "0053365f189d832d477ae3c84a9c8607016fbca48e3112e9602f5f9b6ba63fb8", T0, "scipy"),
    # float rows whose float levels are not finite take the exact levels rounded, and the
    # orbit ends before a rounded level overflows (x0's V1 at 1e200,1e200,1e-300: 2e500)
    "orbit-nonfinite-then-zero-division": Case("orbit --k 3 --x0 1e200,1e200,1e-300 --steps 3",
                                               "ab9159292803871fd62932a69f0b1130623f8aab0aa23401d3bb462977ed35d2", S0),
    # x0 is in the orthant, but its float V1, V2 and V3 overflow: only the header
    "orbit-x0-levels-overflow": Case("orbit --k 3 --x0 1e-320,1,1 --steps 5",
                                     "ab9159292803871fd62932a69f0b1130623f8aab0aa23401d3bb462977ed35d2", S0),
    "orbit-nonfinite-x0": Case("orbit --k 3 --x0 1e300,1e300,1e300 --steps 2",
                               "18650f05548bb2b897419d73be78c2287c0309e4f37ce5600383235b1b7b8a6d"),
    "orbit-zero-division-row-2": Case("orbit --k 3 --a 0 --x0 1e100,1e-20,1e-160 --steps 5",
                                      "ca9695574c7fe61f075d7fdc6ace212f73e5d5b71c2ce5f32307b26272068797"),
    # an intermediate product overflows at rows 4, 12 and 20, where the levels fit: all 21 rows
    "orbit-levels-overflow": Case("orbit --k 3 --x0 1,1e-100,1 --steps 20",
                                  "846896884367de6b4f20a81941bed9f4ed68bdec733da9ebcecf06a7a09a4126"),
    # input errors
    "verify-k2": _error("verify --k 2", r"error: .*k >= 3"),
    "verify-a-zero-denominator": _error("verify --k 3 --a 1/0"),
    "verify-a-negative": _error("verify --k 3 --a -1"),
    "verify-k-range-reversed": _error("verify --k-range 8..3"),
    "verify-k-range-not-a-range": _error("verify --k-range abc"),
    "verify-trials-0": _error("verify --k 3 --trials 0"),
    # the report is opened before the first line is printed
    "verify-json-unwritable": _error("verify --k 3 --trials 1 --json OUT/no/such/report.json", "error: cannot write "),
    # exponent literals past the 4300-digit input bound, refused before any bigint work
    "verify-a-exponent-5000": _error("verify --k 3 --a 1e5000 --trials 1 --json OUT"),
    "orbit-x0-exponent-99999": _error("orbit --k 3 --x0 1,1,1e99999 --steps 1 --exact --out OUT"),
    "orbit-x0-exponent-999999": _error("orbit --k 3 --x0 1,1,1e999999 --steps 1 --exact --out OUT"),
    "orbit-x0-short": _error("orbit --k 3 --x0 1,2"),
    "orbit-x0-zero": _error("orbit --k 3 --x0 1,0,3"),
    "orbit-steps-negative": _error("orbit --k 3 --x0 1,1,3 --steps -1"),
    "orbit-proj-two": _error("orbit --k 3 --x0 1,1,3 --proj 1,2"),
    "orbit-proj-repeated": _error("orbit --k 3 --x0 1,1,3 --proj 1,2,2"),
    "orbit-proj-out-of-range": _error("orbit --k 3 --x0 1,1,3 --proj 1,2,9"),
    "orbit-proj-not-integer": _error("orbit --k 3 --x0 1,1,3 --proj 1,x,3 --out OUT"),
    "orbit-x0-overflow": _error("orbit --k 3 --x0 1e400,1,1 --steps 2 --out OUT"),
    "orbit-a-overflow": _error("orbit --k 3 --a 1e400 --x0 1,1,1 --steps 2 --out OUT"),
    "orbit-x0-underflow": _error("orbit --k 3 --x0 1e-400,1,1 --steps 2 --out OUT"),
    # every coordinate is in float64, but their product, which the levels divide by, is 0
    "orbit-k30-product-underflow": _error(f"orbit --k 30 --x0 {K30} --steps 2 --out OUT"),
    "orbit-k17-product-underflow": _error(f"orbit --k 17 --x0 {','.join(['1e-20'] * 17)} --steps 2 --out OUT"),
    "flow-k30-product-underflow": _error(f"flow --k 30 --x0 {K30} --dt 0.1 --t-max 0.2 --out OUT"),
    "flow-x0-overflow": _error("flow --k 3 --x0 1e400,1,1 --out OUT"),
    "flow-a-overflow": _error("flow --k 3 --a 1e400 --x0 1,1,1 --out OUT"),
    "flow-tmax-inf": _error("flow --k 3 --x0 1,1,1 --t-max inf --out OUT"),
    "flow-dt-nan": _error("flow --k 3 --x0 1,1,1 --dt nan --out OUT"),
    "flow-partial-step": _error("flow --k 3 --x0 1,1,1 --dt 0.3 --t-max 1 --out OUT"),
    "flow-dt-beyond-tmax": _error("flow --k 3 --x0 1,1,1 --dt 2 --t-max 1 --out OUT"),
    "flow-rk45-partial-step": _error("flow --k 3 --x0 1,1,1 --dt 0.3 --t-max 1 --method rk45 --out OUT"),
    "reduce-negative-steps": _error("reduce --k 5 --x0 1,2,3,4,5 --steps -1 --out OUT"),
    "reduce-k4": _error("reduce --k 4 --x0 1,2,3,4 --out OUT"),
    "reduce-x0-zero": _error("reduce --k 3 --x0 1,0,1 --out OUT"),
    "figures-out-unwritable": _error("figures --which 2 --out OUT/no/such/dir/f.csv", "error: cannot write "),
    "usage-no-command": _error(""),
    "usage-orbit-without-flags": _error("orbit"),
    "usage-figures-9": _error("figures --which 9"),
}


def argv(case: Case, tmpdir) -> list:
    return [arg.replace("OUT", os.path.join(tmpdir, "out")) for arg in case.argv.split()]


def check(case: Case, run: Run, tmpdir) -> None:
    """The exit code is the case's. An exit 2 is one `error: ` line, an empty
    stdout and an empty tmpdir. No cell of stdout or of a written file is
    nan, inf or -inf. The digest and each stderr line match the case's."""
    out = Path(tmpdir) / "out"
    written = [path.read_bytes() for path in (out, Path(f"{out}.flow.csv")) if path.is_file()]
    assert run.code == case.code, f"exit {run.code}, expected {case.code}; stderr {run.stderr!r}"
    if run.code == 2:
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, f"stderr {run.stderr!r}"
        assert run.stdout == "" and not os.listdir(tmpdir), f"stdout {run.stdout[:80]!r}, files {os.listdir(tmpdir)}"
    for text in [run.stdout, *(data.decode() for data in written)]:
        assert not re.search(r"\b(nan|inf)\b", text), "a cell is nan, inf or -inf"
    if case.digest is not None:
        digest = hashlib.sha256(b"".join([run.stdout.encode(), *written])).hexdigest()
        assert digest == case.digest, f"sha256 {digest}, expected {case.digest}"
    if case.stderr is not None:
        lines = run.stderr.splitlines()
        assert len(lines) == len(case.stderr) and all(map(re.match, case.stderr, lines)), f"stderr {run.stderr!r}"


def environ(command) -> dict:
    """os.environ without LYNESS_SEED, and for PYTHON with src first on PYTHONPATH."""
    env = {name: value for name, value in os.environ.items() if name != "LYNESS_SEED"}
    if command == PYTHON:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def fresh(case: Case, tmpdir, command=PYTHON) -> Run:
    proc = subprocess.run([*command, *argv(case, tmpdir)], capture_output=True, env=environ(command), timeout=60)
    return Run(proc.returncode, proc.stdout.decode(), proc.stderr.decode())


def main(command) -> int:
    failed, skipped = [], []
    for name, case in CASES.items():
        if case.needs and importlib.util.find_spec(case.needs) is None:
            skipped.append(name)
            continue
        with tempfile.TemporaryDirectory() as tmpdir:
            try:
                check(case, fresh(case, tmpdir, command), tmpdir)
            except (AssertionError, OSError, subprocess.TimeoutExpired) as exc:
                failed.append(name)
                print(f"FAIL {name}: {exc}")
    print(f"{len(CASES) - len(failed) - len(skipped)} passed, {len(failed)} failed, {len(skipped)} skipped")
    for name in skipped:
        print(f"skipped {name}: no {CASES[name].needs}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or PYTHON))
