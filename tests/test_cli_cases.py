"""Every case of cli_cases.CASES through `cli.main` in process; two of them,
and a closed stdout, in fresh processes."""

import contextlib
import io
import subprocess

import pytest

from cli_cases import CASES, PYTHON, Run, argv, check, environ, fresh
from lynesslab import cli


@pytest.mark.parametrize("name", CASES)
def test_cli_case(name, tmp_path, monkeypatch):
    case = CASES[name]
    monkeypatch.delenv("LYNESS_SEED", raising=False)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv(case, tmp_path))
    check(case, Run(code, stdout.getvalue(), stderr.getvalue()), tmp_path)


@pytest.mark.parametrize("name", ["reduce-k5-csv", "orbit-x0-overflow"])
def test_the_runner_checks_a_case_in_a_fresh_process(name, tmp_path):
    check(CASES[name], fresh(CASES[name], tmp_path), tmp_path)


@pytest.mark.parametrize("args", ["orbit --k 3 --x0 1,1,3 --steps 100000", "figures --which 2"])
def test_a_reader_that_closes_stdout_gets_one_error_line_and_exit_two(args):
    proc = subprocess.Popen([*PYTHON, *args.split()], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=environ(PYTHON))
    proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode().startswith("error: cannot write <stdout>") and err.count(b"\n") == 1
