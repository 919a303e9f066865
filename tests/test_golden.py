"""Replay the golden CLI corpus, tests/golden/manifest.json, byte for byte.

Every entry was recorded by `scripts/golden.py` with one BLAS thread; a change
that means to move an output rewrites the manifest with that script.  The
entries replay at two threads too: the shadow oracle takes its QRs in blocks of
at most `shadowing.QR_BLOCK_ROWS` rows, which OpenBLAS does not split across
threads up to d = 32.
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
# the reports whose oracle halves pass QR_BLOCK_ROWS rows, so each takes more than one block
MULTI_BLOCK = ["shadow dense_d16 window 30", "shadow dense_d32 window 12", "shadow dense_d32 window 30"]
# numpy reads the BLAS thread count once, on import, so the two-thread replay runs in its own process
REPLAY = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("golden", sys.argv[1])
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)
entries = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
print(json.dumps([e["name"] for e in entries if e["name"] in sys.argv[2:] and golden.replay(e) == e]))
"""


def test_manifest_lists_the_corpus():
    names = [name for name, _, _ in golden.invocations()] + [golden.SWEEP]
    assert [e["name"] for e in MANIFEST] == names


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["name"] for e in MANIFEST])
def test_replay_is_byte_identical(entry):
    assert golden.replay(entry) == entry


def test_multi_block_oracle_reports_replay_at_two_blas_threads():
    # a QR of a whole half (up to 992 rows at d = 32) rounds by how OpenBLAS splits it across threads
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    run = subprocess.run([sys.executable, "-c", REPLAY, str(ROOT / "scripts" / "golden.py"), *MULTI_BLOCK],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == MULTI_BLOCK


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
