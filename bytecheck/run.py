"""Record, and compare, what every command of commands.txt writes.

    python3 bytecheck/run.py record SRC_DIR OUT.json
    python3 bytecheck/run.py compare A.json B.json

``record`` runs each command as ``python -m quasilattice.cli`` with
SRC_DIR (the directory holding the ``quasilattice`` package, such as a
checkout's ``src``) first on PYTHONPATH, in an empty directory of its
own, one command at a time.  It writes the sha256 of its stdout, of its
stderr (where SRC_DIR's path reads "SRC_DIR", since a warning names the
file it comes from) and of each file it leaves in that directory, and
its exit code, to OUT.json, together with a fingerprint of the platform: the python,
numpy and BLAS versions and the BLAS thread count.  Two records from
different platforms can differ in the last bit of a float without any
change of code, so ``compare`` refuses them (exit 2).  Otherwise it
names every command whose exit code or any hash differs, with the parts
that differ (exit code, stdout, stderr, each file by name), or that only
one record holds, and exits 1 if there is one, else 0.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

COMMANDS = Path(__file__).with_name("commands.txt")


def commands() -> list[str]:
    """The command lines of commands.txt, without comments and blank lines."""
    lines = (line.split("#", 1)[0].strip() for line in COMMANDS.read_text().splitlines())
    return [line for line in lines if line]


def _blas_threads() -> int | None:
    """The thread count of the OpenBLAS bundled with numpy (the 64-bit
    scipy-openblas of numpy's wheels), or None when there is none."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(src: Path, command: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "quasilattice.cli", *shlex.split(command)],
            cwd=cwd, env=env, capture_output=True, check=False,
        )
        files = {p.name: _sha256(p.read_bytes()) for p in sorted(Path(cwd).iterdir())}
    stderr = proc.stderr.replace(os.fsencode(src), b"SRC_DIR")
    return {
        "exit_code": proc.returncode,
        "stdout_sha256": _sha256(proc.stdout),
        "stderr_sha256": _sha256(stderr),
        "files": files,
    }


def record(src: Path, out: Path) -> int:
    if not (src / "quasilattice" / "cli.py").is_file():
        print(f"error: {src} holds no quasilattice package", file=sys.stderr)
        return 2
    doc = {"fingerprint": fingerprint(), "commands": {}}
    for command in commands():
        doc["commands"][command] = run_one(src.resolve(), command)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(doc['commands'])} commands recorded in {out}")
    return 0


def _differing_parts(a: dict | None, b: dict | None) -> list[str]:
    """The parts of one command's two records that differ: its exit code,
    stdout, stderr and each file by name, or the one record that holds it."""
    if a is None or b is None:
        return ["only in " + ("B" if a is None else "A")]
    parts = [name for key, name in (("exit_code", "exit code"), ("stdout_sha256", "stdout"),
                                     ("stderr_sha256", "stderr")) if a[key] != b[key]]
    files = dict.fromkeys([*a["files"], *b["files"]])
    return parts + [f"file {name}" for name in files if a["files"].get(name) != b["files"].get(name)]


def compare(a_path: Path, b_path: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
    if a["fingerprint"] != b["fingerprint"]:
        print(f"error: fingerprints differ: {a['fingerprint']} vs {b['fingerprint']}",
              file=sys.stderr)
        return 2
    differ = {}
    for command in dict.fromkeys([*a["commands"], *b["commands"]]):
        parts = _differing_parts(a["commands"].get(command), b["commands"].get(command))
        if parts:
            differ[command] = parts
    for command, parts in differ.items():
        print(f"differs: {command} [{', '.join(parts)}]")
    print(f"{len(differ)} of {len(set(a['commands']) | set(b['commands']))} commands differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "record":
        return record(Path(argv[1]), Path(argv[2]))
    if len(argv) == 3 and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
