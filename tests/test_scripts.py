"""The two scripts under scripts/ run and agree with the package they wrap."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

from shadowspec.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_delta_sweep_holds_the_bound():
    spec = importlib.util.spec_from_file_location(
        "shadow_delta_sweep", SCRIPTS / "shadow_delta_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    header, *rows = sweep.run(0).splitlines()
    assert header == "delta,epsilon_constructed,epsilon_oracle,epsilon_bound"
    assert len(rows) == len(sweep.DELTAS) == 6
    width = sweep.WINDOW[1] - sweep.WINDOW[0] + 1
    for row, delta in zip(rows, sweep.DELTAS):
        given, constructed, oracle, bound = map(float, row.split(","))
        assert given == delta
        assert constructed <= bound
        # the oracle minimizes the l2 distance over the window, not the sup,
        # so it may lose to the construction in sup norm (it does, by up to
        # 1.3e-5 relative, on three of these rows), but by at most sqrt(width)
        assert oracle <= math.sqrt(width) * constructed


def test_shift_example_script_writes_the_cli_bundle(tmp_path):
    script_out, cli_out = tmp_path / "script", tmp_path / "cli"
    subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_shift_example.py"), str(script_out), "0"],
        check=True,
        capture_output=True,
    )
    assert main(["example17", "--output", str(cli_out), "--seed", "0"]) == 0
    names = ("report.json", "gain_sweep.csv", "oracle_trend.csv")
    assert sorted(p.name for p in script_out.iterdir()) == sorted(names)
    for name in names:
        assert (script_out / name).read_bytes() == (cli_out / name).read_bytes()
