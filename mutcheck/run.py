"""Apply each mutation of mutations.json to a copy of src and check that
the tests it names fail.

    python3 mutcheck/run.py

Each entry of mutations.json names a file under src, an ``old`` text that
occurs exactly once in it, the ``new`` text that replaces it, a line on
``why`` the mutant is wrong, and ``killed_by``: the test ids expected to
fail on the mutant, each tagged "derives" (the test reaches its expected
value by another route) or "restates" (it repeats the constant or the
formula that the mutant changes).  For every entry the runner copies
src into a temporary directory, applies the entry and runs pytest on its
ids alone with that copy first on PYTHONPATH and as pytest's
``pythonpath``.  It prints "killed" when every id fails and "SURVIVED"
with the ids that passed otherwise, and exits 1 if an entry survived or
does not apply, else 0.  It is not part of Tier-1, which only checks
that the list parses and applies.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTATIONS = Path(__file__).with_name("mutations.json")
TAGS = {"derives", "restates"}


def entries() -> list[dict]:
    """The entries of mutations.json, each checked for its keys and tags."""
    doc = json.loads(MUTATIONS.read_text())
    for i, entry in enumerate(doc):
        keys = {"file", "old", "new", "why", "killed_by"}
        if set(entry) != keys:
            raise ValueError(f"entry {i} must have exactly the keys {sorted(keys)}")
        if not entry["killed_by"] or not set(entry["killed_by"].values()) <= TAGS:
            raise ValueError(f"entry {i} must tag at least one test, each one of {sorted(TAGS)}")
    return doc


def mutate(entry: dict, src: Path) -> None:
    """Replace the entry's old text, which must occur exactly once, in the
    copy of its file under src (the copy's src directory)."""
    path = src / Path(entry["file"]).relative_to("src")
    text = path.read_text()
    if text.count(entry["old"]) != 1:
        raise ValueError(f"{entry['file']}: {entry['old']!r} occurs {text.count(entry['old'])} times")
    path.write_text(text.replace(entry["old"], entry["new"]))


def failed_ids(src: Path, ids: list[str]) -> set[str]:
    """The ids among ids that fail with src first on the path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *ids],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    return set(re.findall(r"^FAILED (\S+)", proc.stdout, flags=re.MULTILINE)) & set(ids)


def check(entry: dict) -> list[str]:
    """The ids of the entry that pass on its mutant."""
    with tempfile.TemporaryDirectory(prefix="mutcheck-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        mutate(entry, src)
        ids = list(entry["killed_by"])
        failed = failed_ids(src, ids)
    return [i for i in ids if i not in failed]


def main() -> int:
    doc = entries()
    survived = 0
    for i, entry in enumerate(doc):
        head = f"[{i}] {entry['file']}: {entry['old']!r} -> {entry['new']!r}"
        try:
            passed = check(entry)
        except ValueError as exc:
            print(f"{head}: does not apply: {exc}")
            survived += 1
            continue
        if passed:
            survived += 1
            print(f"{head}: SURVIVED ({entry['why']}); passed: {', '.join(passed)}")
        else:
            tags = sorted(set(entry["killed_by"].values()))
            print(f"{head}: killed by {len(entry['killed_by'])} test(s), {'/'.join(tags)}")
    print(f"{len(doc) - survived} of {len(doc)} mutations killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
