"""The CLI's stdout over the call matrix of ``tools/stdout_matrix.py``, and the tool's runner.

The tool's library rows are checked chain by chain, by the ``test_bits_pinned`` tests.
"""

import os
import subprocess
import sys

import stdout_matrix
from conftest import MANIFEST, ROOT, check_pinned


def test_stdout_matches_manifest():
    # Every call of the matrix, run in this process through cli.main, must print the bytes
    # whose digest the committed manifest holds, and exit with its code.
    calls = stdout_matrix.call_entries()
    check_pinned(enumerate(calls))
    # The manifest holds one line per call and per row, after its version header.
    assert len(MANIFEST.read_text().splitlines()) == 1 + len(calls) + len(stdout_matrix.row_keys())


def test_crash_is_recorded_against_its_call(monkeypatch):
    # An exception that escapes cli.main takes the exit code's place; the run goes on.
    from tiltedsum import cli

    def cmd_stats(args, chain):  # the parser names the subcommand after its handler
        raise ZeroDivisionError

    monkeypatch.setattr(cli, "cmd_stats", cmd_stats)
    assert stdout_matrix.run_in_process(["stats", "--a", "0.1", "--b", "0.3"]) == (
        "ZeroDivisionError", b""
    )


def test_file_mode_writes_one_file_per_call(monkeypatch, tmp_path, capsys):
    argv = [["stats", "--a", "0.1", "--b", "0.3", "--format", "csv"], ["--help"],
            ["stats", "--a", "1.5", "--b", "0.3"]]
    keys = [("occupation_pmf", 0.1, 0.3, 1), ("exact_normal_distance", 0.1, 0.3, 1)]
    monkeypatch.setattr(stdout_matrix, "matrix", lambda: argv)
    monkeypatch.setattr(stdout_matrix, "row_keys", lambda: keys)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts SRC first on it
    assert stdout_matrix.main([str(ROOT / "src"), str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"5 calls and rows written to {tmp_path}\n"
    files = sorted(tmp_path.iterdir())
    assert [f.name for f in files] == [
        "000-stats.txt", "001-help.txt", "002-stats.txt", "003-occupation_pmf.txt",
        "004-exact_normal_distance.txt",
    ]
    for path, call in zip(files, argv):
        code, stdout = stdout_matrix.run_in_process(call)
        header = f"$ tiltedsum {' '.join(call)}\nexit {code}\n---\n".encode()
        assert path.read_bytes() == header + stdout
    assert files[2].read_bytes() == b"$ tiltedsum stats --a 1.5 --b 0.3\nexit 1\n---\n"
    # A row's file holds one value per line, so that a diff names the values that moved.
    assert files[3].read_text() == "= occupation_pmf 0.1 0.3 n=1\n---\n0.7499999999999999\n0.25\n"
    assert files[4].read_text() == "= exact_normal_distance 0.1 0.3 n=1\n---\n0.38641499634222376\n"
    # The manifest form writes the version header, then each entry's line, whose digest covers
    # the body of the entry's file.
    manifest = tmp_path / "manifest.txt"
    assert stdout_matrix.main(["--manifest", str(ROOT / "src"), str(manifest)]) == 0
    names = [" ".join(call) for call in argv]
    names += ["occupation_pmf 0.1 0.3 n=1", "exact_normal_distance 0.1 0.3 n=1"]
    bodies = [f.read_bytes().split(b"---\n", 1)[1] for f in files]
    entries = zip([0, 0, 1, "value", "value"], names, bodies)
    assert manifest.read_text().splitlines() == [stdout_matrix.header()] + [
        stdout_matrix.line(i, entry) for i, entry in enumerate(entries)
    ]


def test_chain_rule_matches_derive_chain():
    # The call list takes pi and ell from the tool's own copy of derive_chain's rule, so that it
    # depends on no checkout; the copy must still give the library's bits.
    from tiltedsum import derive_chain

    for a, b in stdout_matrix.CHAINS:
        chain = derive_chain(a, b)
        assert stdout_matrix.chain_rule(a, b) == (chain.pi0, chain.pi1, chain.ell)


def test_module_entry_point_matches_in_process_run(tmp_path):
    # `python -m tiltedsum.cli` exits with main's code through sys.exit, one call per code.
    src = str(ROOT / "src")
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    calls = {
        0: ["pmf", "--a", "0.1", "--b", "0.3", "--distortion", "0.05", "--n", "12",
            "--format", "csv"],
        1: ["stats", "--a", "1.5", "--b", "0.3"],
        2: ["verify", "--perturb", "1e-6"],
        3: ["stats", "--a", "0.1", "--b", "0.3", "--out", str(tmp_path / "missing" / "x.csv")],
    }
    for code, argv in calls.items():
        done = subprocess.run([sys.executable, "-m", "tiltedsum.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == code
        assert (done.returncode, done.stdout) == stdout_matrix.run_in_process(argv)
