"""Replay the golden CLI corpus, tests/golden/manifest.json, byte for byte.

Every entry was recorded by `scripts/golden.py` with one BLAS thread; a change
that means to move an output rewrites the manifest with that script.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MANIFEST = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
# OpenBLAS takes the first of these that is set, else one thread per core
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
ONE_BLAS_THREAD = (BLAS_THREADS or str(os.cpu_count())) == "1"


def test_manifest_lists_the_corpus():
    names = [name for name, _, _ in golden.invocations()] + [golden.SWEEP]
    assert [e["name"] for e in MANIFEST] == names
    assert set(golden.BLAS_THREAD_BOUND) <= set(names)


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["name"] for e in MANIFEST])
def test_replay_is_byte_identical(entry):
    got = golden.replay(entry)
    if entry["name"] in golden.BLAS_THREAD_BOUND and not ONE_BLAS_THREAD:
        # the report's oracle digits are recorded for one BLAS thread; exit code,
        # stdout and stderr do not depend on the thread count
        got, entry = {**got, "files": None}, {**entry, "files": None}
    assert got == entry


def test_module_entry_point_prints_the_recorded_report():
    # `python -m shadowspec`, which the corpus (run through cli.main) does not reach
    entry = next(e for e in MANIFEST if e["name"] == "analyze dense_d2 window 0")
    corpus = ROOT / "tests" / "golden"
    before = sorted(p.name for p in corpus.iterdir())
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "shadowspec", *entry["argv"]], cwd=corpus, env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout).hexdigest() == entry["stdout"]
    assert sorted(p.name for p in corpus.iterdir()) == before


def test_changed_parts_names_what_moved():
    entry = {"name": "shadow d2 window 1", "argv": ["shadow"], "input": "d2.json", "exit": 0,
             "stdout": "a", "stderr": "b", "files": {"out/a.json": "c", "out/b.csv": "d"}}
    assert golden.changed_parts(entry, entry) == []
    moved = {**entry, "exit": 3, "stderr": "e", "files": {"out/a.json": "f", "out/c.csv": "g"}}
    assert golden.changed_parts(entry, moved) == [
        "exit", "stderr", "out/a.json", "out/b.csv", "out/c.csv"]
    sweep = {"name": golden.SWEEP, "csv": "h"}
    assert golden.changed_parts(sweep, {**sweep, "csv": "i"}) == ["csv"]
