"""Show that every output check accepts a real output and rejects a
deliberately corrupted one.

    python3 perfbench/selftest.py

Runs one operation of each kind from the seed-0 workloads, checks its
genuine output, then rewrites the output with one corruption at a time
and requires the check to raise ``CheckError``.  Exits 1 if any
corruption passes or any genuine output fails.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(ROOT, "perfbench", "out", "selftest")


def _csv_edit(row: int, col: int, fn):
    def edit(text: str) -> str:
        rows = list(csv.reader(io.StringIO(text)))
        rows[row][col] = repr(fn(float(rows[row][col])))
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        return buf.getvalue()
    return edit


def _drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def _json_edit(fn):
    def edit(text: str) -> str:
        doc = json.loads(text)
        fn(doc)
        return json.dumps(doc)
    return edit


def _repeat_branch(doc) -> None:
    """Replace branch 1 of a sector by a copy of branch 0: every column
    is still an eigenpair, but the spectrum is incomplete."""
    sec = doc["sectors"][2]
    sec["coefficients"][1] = list(sec["coefficients"][0])
    sec["omega_ghz"][1] = sec["omega_ghz"][0]


# kind -> list of (description, file index, edit of the file text)
FILE_CORRUPTIONS = {
    "dynamics": [
        ("fitted rate 20% high", 1, _json_edit(lambda d: d.update(gamma_fit_ghz=1.2 * d["gamma_fit_ghz"]))),
        ("norm residual 1e-2 in one row", 0, _csv_edit(500, 5, lambda x: 1e-2)),
        ("last row missing", 0, _drop_last_line),
    ],
    "chi_sweep": [
        ("re chi off by 1e-9", 0, _csv_edit(100, 3, lambda x: x + 1e-9)),
        ("im chi off by 2e-11", 0, _csv_edit(300, 4, lambda x: x + 2e-11)),
        ("last row missing", 0, _drop_last_line),
    ],
    "decay_sweep": [
        ("gamma off by 1e-9", 0, _csv_edit(20, 4, lambda x: x + 1e-9)),
        ("|s(k_q)| off by 1e-9", 0, _csv_edit(20, 2, lambda x: x + 1e-9)),
        ("last row missing", 0, _drop_last_line),
    ],
    "validate": [
        ("report not passed", 0, _json_edit(lambda d: d.update(passed=False))),
    ],
    "spectrum": [
        ("coefficient off by 1e-9", 0,
         _json_edit(lambda d: d["sectors"][2]["coefficients"][1].__setitem__(
             0, d["sectors"][2]["coefficients"][1][0] + 1e-9))),
        ("eigenvalue off by 1e-9", 0,
         _json_edit(lambda d: d["sectors"][2]["omega_ghz"].__setitem__(
             1, d["sectors"][2]["omega_ghz"][1] + 1e-9))),
        ("branch 1 repeats branch 0", 0, _json_edit(_repeat_branch)),
        ("raising element off by 1e-9", 0,
         _json_edit(lambda d: d["sectors"][2]["raising_elements_from_lower"][1].__setitem__(
             0, d["sectors"][2]["raising_elements_from_lower"][1][0] + 1e-9))),
        ("top sector missing", 0, _json_edit(lambda d: d["sectors"].pop())),
    ],
}

OBJECT_CORRUPTIONS = {
    "pv_check": [
        ("numeric PV 2% off", lambda r: dataclasses.replace(r, numeric=1.02 * r.analytic)),
        ("self-consistency 3e-3", lambda r: dataclasses.replace(r, self_consistency=3e-3)),
    ],
    "exact_spectrum": [
        ("exact spectrum shifted by 1e-9", lambda s: {k: v + 1e-9 for k, v in s.items()}),
    ],
}


def _rejects(check, arg) -> bool:
    try:
        check(arg)
    except checks.CheckError:
        return True
    return False


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    first = {}
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 0, OUT):
            first.setdefault(op.kind, op)
    bad = 0
    for kind, op in first.items():
        out = op.run()
        if _rejects(op.check, out):
            print(f"FAIL {kind}: genuine output rejected")
            bad += 1
            continue
        print(f"ok   {kind}: genuine output accepted")
        # Each case corrupts the output and returns the check's argument.
        if kind in OBJECT_CORRUPTIONS:
            cases = [(desc, lambda c=corrupt: c(out)) for desc, corrupt in OBJECT_CORRUPTIONS[kind]]
        else:
            cases = [(desc, lambda p=op.outputs[i], e=edit: _corrupt_file(p, e, out))
                     for desc, i, edit in FILE_CORRUPTIONS[kind]]
            cases.append(("nonzero exit code", lambda: 1))
        for desc, corrupt in cases:
            saved = {p: open(p).read() for p in op.outputs}
            try:
                rejected = _rejects(op.check, corrupt())
            finally:
                for p, text in saved.items():
                    with open(p, "w") as fh:
                        fh.write(text)
            print(f"{'ok  ' if rejected else 'FAIL'} {kind}: {desc} "
                  f"{'rejected' if rejected else 'ACCEPTED'}")
            bad += not rejected
    print("self-test", "passed" if bad == 0 else f"FAILED ({bad})")
    return 1 if bad else 0


def _corrupt_file(path: str, edit, result):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))
    return result


if __name__ == "__main__":
    sys.exit(main())
