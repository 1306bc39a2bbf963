"""CLI outputs against the sha256 digests in ``data/parity_digests.json``.

A change that keeps the algorithms keeps these bytes: ``discretize`` stdout
and its point set for every method on three spaces, one ``experiment`` CSV
with L1 columns, and ``freqset`` JSON.  The wall-time column ``runtime_ms``
and the ``wrote <path>`` lines are dropped before hashing.  A change that
alters an output on purpose records the new digests, from
``{name: digest(argv, directory) for name, argv in CASES}``, and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from normdisc import cli

DIGESTS = Path(__file__).parent / "data" / "parity_digests.json"

CASES = [
    *((f"discretize {space} {method}", ["discretize", "--space", space, "--method", method]) for space in ("cross:2:1", "cross:3:2", "cross:2:3") for method in cli.METHODS),
    ("experiment cross:2:1", ["experiment", "--config", "space=cross:2:1", "methods=random,greedy,bss,grid", "seeds=0..2", "l1=true", "effort=quick"]),
    *((f"freqset {space}", ["freqset", "--space", space]) for space in ("cross:3:2", "box:2x1x3")),
]


def digest(argv: list[str], directory: Path) -> str:
    """sha256 of the exit code, stdout without wall times and written paths, stderr, and the file written by ``--out``."""
    out, err, path = io.StringIO(), io.StringIO(), directory / "out"
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", str(path)] if argv[0] != "experiment" else argv)
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("wrote ")]
    if argv[0] == "experiment":
        lines = [line if line.startswith("#") else line.rpartition(",")[0] for line in lines]  # runtime_ms is the last column
    h = hashlib.sha256(f"exit {code}\n".encode())
    for part in ("\n".join(lines), err.getvalue()):
        h.update(part.encode() + b"\0")
    if path.exists():
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_recorded_digest(name, argv, tmp_path):
    assert digest(argv, tmp_path) == json.loads(DIGESTS.read_text())[name]
