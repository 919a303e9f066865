"""Record the golden CLI corpus: every listed invocation's exit code and the
SHA-256 of its stdout, stderr and each file it writes.

Each CLI invocation runs through `shadowspec.cli.main` in its own temporary
directory, holding a copy of its operator file, with relative paths, so the
reports it writes embed no machine-specific path.  The corpus also holds the
CSV of `shadow_delta_sweep.run(0)`.  `tests/test_golden.py` replays
`tests/golden/manifest.json` through `replay`; this script rewrites that
manifest and prints every entry that changed, with the parts that moved
(`changed_parts`), or was added or dropped.

The operator files in tests/golden/ are the two example-17 shifts (T with
weights 2*sqrt(2) on the right and 1/(2*sqrt(2)) on the left, and its adjoint
S) and planted dense operators V diag(lam) V^-1: d = 2, 5, 16 and 32 with
every |lam| in 0.45..0.8 or 1.25..2.2, and d = 3 with one lam on the unit
circle.

Usage:
  python scripts/golden.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
if __name__ == "__main__":  # numpy reads these once, on import: the manifest holds one-thread bytes
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

from shadowspec.cli import main  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
MANIFEST = GOLDEN / "manifest.json"
SWEEP = "shadow_delta_sweep.run(0)"

DENSE = ("dense_d2", "dense_d3_circle", "dense_d5", "dense_d16", "dense_d32")
# probe windows build a (62 d) x (61 d) SVD at window 30: too slow for the corpus at d >= 16
SLOW = {("probe", "dense_d16", 30), ("probe", "dense_d32", 30)}


def invocations() -> list:
    """(name, argv, operator file or None) of every CLI run in the corpus."""
    runs = [(f"example17 seed {s}", ["example17", "--seed", str(s), "--output", "out"], None)
            for s in (0, 5, 17)]
    for op, windows in (("shift_T", (1, 12, 24)), ("shift_S", (1, 12, 24)),
                        *((op, (0, 1, 12, 30)) for op in DENSE)):
        for w in windows:
            for cmd in ("analyze", "shadow", "probe"):
                if (cmd, op, w) in SLOW:
                    continue
                argv = [cmd, "--input", f"{op}.json", "--window", str(w)]
                if cmd != "analyze":  # analyze writes its report to stdout
                    argv += ["--output", f"{cmd}.out"]
                runs.append((f"{cmd} {op} window {w}", argv, f"{op}.json"))
    # refusals (exit 2): each flag check, the --input checks, and flags checked before the file
    for name, argv in (("analyze tol nan", ["--tol", "nan"]), ("analyze tol 0", ["--tol", "0"]),
                       ("shadow delta -1", ["--delta", "-1"]), ("shadow q 1.5", ["--q", "1.5"]),
                       ("probe window -1", ["--window", "-1"]), ("shadow nodes 100", ["--nodes", "100"]),
                       ("analyze kind shift", ["--kind", "shift"])):
        argv = [name.split()[0], "--input", "dense_d2.json", *argv]
        runs.append((f"refuse {name} dense_d2", argv, "dense_d2.json"))
    runs += [("refuse analyze missing input", ["analyze", "--input", "missing.json"], None),
             ("refuse analyze tol nan missing input",
              ["analyze", "--input", "missing.json", "--tol", "nan"], None),
             ("refuse analyze no input", ["analyze"], None),
             ("refuse example17 delta 0", ["example17", "--delta", "0", "--output", "out"], None)]
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sweep_csv() -> str:
    path = ROOT / "scripts" / "shadow_delta_sweep.py"
    spec = importlib.util.spec_from_file_location("shadow_delta_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep.run(0)


def replay(entry: dict) -> dict:
    """The entry as a run now records it: for a CLI entry its argv, exit code and
    hashes of stdout, stderr and every written file (by relative path); for the
    sweep, the hash of its CSV."""
    if entry["name"] == SWEEP:
        return {"name": SWEEP, "csv": _sha(_sweep_csv().encode())}
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        if entry["input"]:
            shutil.copyfile(GOLDEN / entry["input"], Path(tmp) / entry["input"])
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(entry["argv"])
        finally:
            os.chdir(cwd)
        files = {p.relative_to(tmp).as_posix(): _sha(p.read_bytes())
                 for p in sorted(Path(tmp).rglob("*"))
                 if p.is_file() and p.name != entry["input"]}
    return {**entry, "exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


def changed_parts(old: dict, new: dict) -> list:
    """The parts of an entry that differ between two records of it, in record
    order: `exit`, `stdout`, `stderr` or `csv` (any other key by its name), and
    for `files` the name of each file whose hash differs or that one record lacks."""
    parts = []
    for key in dict.fromkeys([*old, *new]):
        if key == "files":
            was, now = old.get(key, {}), new.get(key, {})
            parts += [f for f in dict.fromkeys([*was, *now]) if was.get(f) != now.get(f)]
        elif old.get(key) != new.get(key):
            parts.append(key)
    return parts


def record() -> list:
    entries = [{"name": name, "argv": argv, "input": op} for name, argv, op in invocations()]
    return [replay(e) for e in [*entries, {"name": SWEEP}]]


if __name__ == "__main__":
    old = {e["name"]: e for e in json.loads(MANIFEST.read_text())} if MANIFEST.exists() else {}
    new = record()
    MANIFEST.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    changed = []
    for e in new:
        if e["name"] not in old:
            changed.append(f"{e['name']}: added")
        elif old[e["name"]] != e:
            changed.append(f"{e['name']}: " + ", ".join(changed_parts(old[e["name"]], e)))
    changed += [f"{name}: dropped" for name in old if name not in {e["name"] for e in new}]
    print("\n".join(changed) if changed else "no entry changed")
    print(f"wrote {MANIFEST.relative_to(ROOT)} ({len(new)} entries, {len(changed)} changed)")
