"""Every case of cli_cases.CASES through `cli.main` in process; two of them,
and a closed stdout, in fresh processes; an --out FIFO whose reader closes
early, in process and in a fresh process."""

import contextlib
import io
import os
import subprocess
import threading

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


@pytest.mark.parametrize("where", ["in process", "fresh process"])
def test_a_reader_that_closes_an_out_fifo_gets_its_path_in_one_error_line(where, tmp_path):
    fifo = str(tmp_path / "ff")
    os.mkfifo(fifo)
    argv = ["orbit", "--k", "3", "--x0", "1,1,3", "--steps", "100000", "--out", fifo]
    lines = []

    def read_one_line():  # blocks until the command opens the FIFO
        with open(fifo, encoding="utf-8") as fh:
            lines.append(fh.readline())

    reader = threading.Thread(target=read_one_line, daemon=True)
    reader.start()
    if where == "in process":
        real_stdout = os.fstat(1)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        run = Run(code, stdout.getvalue(), stderr.getvalue())
        assert os.path.samestat(os.fstat(1), real_stdout)  # fd 1 still writes where it did
    else:
        proc = subprocess.run([*PYTHON, *argv], capture_output=True, env=environ(PYTHON), timeout=60)
        run = Run(proc.returncode, proc.stdout.decode(), proc.stderr.decode())
    reader.join(timeout=60)
    assert not reader.is_alive() and lines == ["n,x1,x2,x3,V1,V2,V3,signZ\n"]
    assert run.code == 2 and run.stdout == ""
    assert run.stderr.startswith(f"error: cannot write {fifo!r}: ") and run.stderr.count("\n") == 1, run.stderr
