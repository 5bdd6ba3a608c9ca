"""Byte identity of the CLI's stdout over the call matrix of ``tools/stdout_matrix.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "stdout_manifest.txt"

_spec = importlib.util.spec_from_file_location("stdout_matrix", ROOT / "tools" / "stdout_matrix.py")
stdout_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stdout_matrix)


def calls(text):
    """Manifest header and {number: line} for the calls of a manifest's text."""
    header, *lines = text.splitlines()
    return header, {line.split(" ", 1)[0]: line for line in lines}


def test_stdout_matches_manifest():
    # Every call of the matrix, run in this process through cli.main, must print the bytes
    # whose digest the committed manifest holds, and exit with its code.
    pinned, want = calls(MANIFEST.read_text())
    running, got = calls(stdout_matrix.manifest())
    moved = [
        f"  {want.get(key, '(none)')}\n    now {got.get(key, '(none)')}"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]
    assert not moved, (
        f"{len(moved)} of {len(got)} calls differ from {MANIFEST.name} "
        "(number, exit code, SHA-256 of stdout, arguments):\n" + "\n".join(moved) + "\n"
        f"The digests pin CPython 3.11 and numpy 2.4.6 (manifest {pinned[2:]}; this run "
        f"{running[2:]}), since other builds may round differently.  If the change of output "
        "is meant, rewrite the manifest with `python3 tools/stdout_matrix.py --manifest src "
        "tests/stdout_manifest.txt` and name the moved calls in CHANGES.md."
    )
