"""The program against ``tests/stdout_manifest.txt``, the runner of ``tools/stdout_matrix.py``,
and the CLI examples of README.

One test recomputes every entry of the manifest, the CLI's calls and the library's rows, and
compares each with the manifest's line of its number.
"""

import itertools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import stdout_matrix

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "stdout_manifest.txt"


def test_stdout_matches_manifest():
    # Each entry must give the manifest's line of its number: a call, run in this process
    # through cli.main, its exit code and the bytes of its stdout; a row every bit of its
    # values.  The manifest holds one line per entry after its version header.
    header, *pinned = MANIFEST.read_text().splitlines()
    now = [stdout_matrix.line(i, entry) for i, entry in enumerate(stdout_matrix.entries())]
    moved = [f"  {old}\n    now {new}" for old, new in itertools.zip_longest(pinned, now)
             if old != new]
    assert not moved, (
        f"{len(moved)} entries differ from {MANIFEST.name} (number, exit code or `value`, "
        "SHA-256 of the stdout or values, name):\n" + "\n".join(moved) + "\n"
        f"The digests pin CPython 3.11 (manifest {header[2:]}; this run "
        f"{stdout_matrix.header()[2:]}), since other builds may round differently.  If the change "
        "is meant, rewrite the manifest with `python3 tools/stdout_matrix.py --manifest src "
        "tests/stdout_manifest.txt` and name the moved entries in CHANGES.md; the file form of "
        "the tool writes each entry's stdout or values."
    )


def test_matrix_calls_every_subcommand():
    # The subcommands that the parser offers are the tool's SUBCOMMANDS, and the matrix calls
    # each with more than --help, so that no command goes without a pinned byte of output.
    code, stdout = stdout_matrix.run_in_process(["--help"])
    usage = stdout.decode().split("\n\n", 1)[0]
    offered = set(re.search(r"\{(.*?)\}", usage).group(1).split(","))
    assert code == 0 and set(stdout_matrix.SUBCOMMANDS) == offered
    called = {argv[0] for argv in stdout_matrix.matrix() if argv[1:] != ["--help"]}
    assert offered <= called


def test_readme_cli_examples_run(monkeypatch, tmp_path):
    # Each `tiltedsum ...` line of README's CLI section exits 0, but the self-test that must
    # fail, which exits 2.  One line writes figure.csv, so they run in an empty directory.
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    calls = [shlex.split(text, comments=True)[1:] for text in block.splitlines()
             if text.startswith("tiltedsum ")]
    assert calls
    monkeypatch.chdir(tmp_path)
    for argv in calls:
        code, _ = stdout_matrix.run_in_process(argv)
        assert code == (2 if argv == ["verify", "--perturb", "1e-6"] else 0), argv


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
