"""Command-line surface: analyze | shadow | probe | example17.

Exit codes are a stable scripting contract: 0 ok, 2 input error, 3 numerical
failure, 4 decay certificate failure.  Reports embed the config that
produced them and contain no timestamps, so identical invocations produce
byte-identical files.  Output files are written atomically: each write goes
to its own temporary file in the target directory, which is then renamed.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ContourThroughSpectrumError, DecayCertificateError, ShadowspecError
from .operators import (
    DenseOperator,
    ShiftOperator,
    adjoint,
    basis_vector,
    identity,
    operator_from_json,
    operator_to_json,
)
from .projector import ContourConfig, RieszSplitting, riesz_splitting
from .shadowing import (
    bgain_test_sequence,
    construct_shadow,
    generate_pseudo_orbit,
    shadow_oracle_lsq,
    window_probe,
)
from .spectral import DEFAULT_GAP_TOL, classify_dense, classify_shift, shift_eigenvector

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CERTIFICATE = 4

GAIN_SWEEP_Q = (1.2, 1.1, 1.05, 1.01)
TREND_WINDOWS = (8, 16, 32, 64)

@dataclass(frozen=True)
class RunConfig:
    """The parsed flags, one field per parser dest."""

    command: str
    input: str | None
    output: str | None
    tol: float
    seed: int
    nodes: int
    window: int
    delta: float
    q: float | None
    kind: str | None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"--tol must be a finite positive number, got {self.tol}")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"--delta must be a finite number >= 0, got {self.delta}")
        if self.q is not None and not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")
        if self.window < 0:
            raise ValueError(f"--window must be nonnegative, got {self.window}")
        try:
            ContourConfig(nodes=self.nodes)
        except ValueError as exc:
            raise ValueError(f"--nodes {self.nodes}: {exc}") from None

    def to_json(self) -> dict:
        # the destination path is deliberately not embedded: identical
        # invocations must produce byte-identical reports wherever they land
        doc = asdict(self)
        del doc["output"]
        return doc


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    # mode 0666 through open(2), so the kernel applies the caller's umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _dump_json(doc: dict) -> str:
    """Report text; a value that overflowed (JSON has no NaN or Infinity) fails here."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"report holds a non-finite value: {exc}") from None


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        _write_atomic(Path(cfg.output), text)
        print(f"wrote {cfg.output}")
    else:
        sys.stdout.write(text)


def _load_operator(cfg: RunConfig):
    if not cfg.input:
        raise ValueError("--input is required for this command")
    data = json.loads(Path(cfg.input).read_text(encoding="utf-8"))
    op = operator_from_json(data)
    if cfg.kind and (
        (cfg.kind == "dense") != isinstance(op, DenseOperator)
    ):
        raise ValueError(f"--kind {cfg.kind} does not match the operator file")
    splitting = None
    if isinstance(data, dict) and "splitting" in data:
        splitting = operator_from_json(data["splitting"])
        if not isinstance(splitting, DenseOperator):
            raise ValueError("explicit splitting must be a dense operator")
    return op, splitting


def _verdict_line(name: str, verdicts) -> str:
    return (
        f"{name:<12} hyperbolic={str(verdicts.hyperbolic):<5} "
        f"uniformly_expansive={str(verdicts.uniformly_expansive):<5} "
        f"shadowing={verdicts.shadowing}"
    )


def cmd_analyze(cfg: RunConfig) -> int:
    op, _ = _load_operator(cfg)
    extra = {}
    if isinstance(op, DenseOperator):
        report = classify_dense(op, tol=cfg.tol)
    else:
        report = classify_shift(op, tol=cfg.tol)
        if cfg.window > 0:
            # materialize(op, N) has one nonzero diagonal off the main one,
            # so it is nilpotent: all 2N+1 eigenvalues are exactly zero
            extra["window_artifact_eigenvalues"] = {
                "label": "window artifact: finite truncation, not the operator's spectrum",
                "half_width": cfg.window,
                "values": [[0.0, 0.0]] * (2 * cfg.window + 1),
            }
    doc = {
        "config": cfg.to_json(),
        "operator": operator_to_json(op),
        "report": {**report.to_json(), **extra},
    }
    text = _dump_json(doc)
    if cfg.output:
        print(_verdict_line("operator", report.verdicts))
    _emit(cfg, text)
    return EXIT_OK


def cmd_shadow(cfg: RunConfig) -> int:
    op, splitting = _load_operator(cfg)
    if not isinstance(op, DenseOperator):
        raise ValueError("shadow experiments need a dense operator (or a dense splitting)")
    source, certificate = "input", {}
    if splitting is None:
        try:
            riesz = riesz_splitting(op, ContourConfig(nodes=cfg.nodes))
            source, splitting, certificate = "riesz", riesz.projector, riesz.to_json()
        except ContourThroughSpectrumError as exc:
            # no resolved unit-circle gap: fall through to the trivial splitting
            # so the decay certificate fails with its measured rates (exit 4)
            print(f"no Riesz projector, using the identity splitting: {exc}", file=sys.stderr)
            source, splitting = "identity", identity(op.dim)
    x0 = np.zeros(op.dim, dtype=np.complex128)
    orbit = generate_pseudo_orbit(
        op, x0, cfg.delta, (-cfg.window, cfg.window), rng_seed=cfg.seed
    )
    result = construct_shadow(op, splitting, orbit, q=cfg.q)
    oracle = shadow_oracle_lsq(op, orbit)
    doc = {
        "config": cfg.to_json(),
        "operator": operator_to_json(op),
        "splitting": {
            "source": source,
            **dict.fromkeys(RieszSplitting.certificate_keys()),
            **certificate,
        },
        "orbit": {
            "window": [orbit.n_lo, orbit.n_hi],
            "delta": orbit.delta,
            "defect_norms": orbit.defect_norms(),
        },
        "shadow": result.to_json(),
        "oracle": oracle.to_json(),
    }
    text = _dump_json(doc)
    print(
        f"epsilon_achieved={result.epsilon_achieved:.6e} "
        f"bound={result.epsilon_bound:.6e} oracle={oracle.epsilon_achieved:.6e}"
    )
    _emit(cfg, text)
    return EXIT_OK


def _probe_ladder(n: int) -> list:
    return sorted({k for k in (n // 8, n // 4, n // 2) if k >= 1} | {n})


def cmd_probe(cfg: RunConfig) -> int:
    op, _ = _load_operator(cfg)
    m = None if isinstance(op, DenseOperator) else cfg.window + 8
    rows = []
    for n in _probe_ladder(cfg.window):
        probe = window_probe(op, "script-B", n, m)
        rows.append((n, probe.gain))
        print(f"N={n:<6d} gain={probe.gain:.9e}")
    _emit(cfg, "N,gain\n" + "".join(f"{n},{gain:.12e}\n" for n, gain in rows))
    return EXIT_OK


def cmd_example17(cfg: RunConfig) -> int:
    """Reproduction bundle for the classic two-sided weighted shift pair:
    the forward shift is uniformly expansive yet fails shadowing, its adjoint
    shadows without being expansive, and neither is hyperbolic."""
    w_hi = 2.0 * math.sqrt(2.0)
    w_lo = 1.0 / w_hi
    t = ShiftOperator("forward", w_hi, w_lo, 0)
    s = adjoint(t)

    report_t = classify_shift(t, tol=cfg.tol)
    report_s = classify_shift(s, tol=cfg.tol)

    eigvec = shift_eigenvector(s, 1.0, radius=30)
    sweep = [bgain_test_sequence(t, eigvec, q).to_json() for q in GAIN_SWEEP_Q]

    delta = cfg.delta if cfg.delta > 0 else 1e-3
    trend = []
    for name, op in (("S", s), ("T", t)):
        for n in TREND_WINDOWS:
            orbit = generate_pseudo_orbit(
                op, basis_vector(0), delta, (-n, n), rng_seed=cfg.seed + n
            )
            oracle = shadow_oracle_lsq(op, orbit)
            trend.append({"operator": name, "N": n, "epsilon": oracle.epsilon_achieved})

    notes = [
        "shadowing failure for the forward shift is demonstrated as a trend: "
        "the windowed oracle epsilon grows with the window at fixed delta. "
        "No finite computation certifies an infinite-dimensional negative.",
        "oracle epsilons for the adjoint shift are empirical shadowing moduli; "
        "no theoretical delta(epsilon) constant is claimed for it.",
    ]
    bundle = {
        "config": cfg.to_json(),
        "annulus_radii": {"inner": w_lo, "outer": w_hi},
        "verdicts": {"T": report_t.to_json(), "S": report_s.to_json()},
        "gain_sweep_for_T": sweep,
        "oracle_epsilon_trend": {"delta": delta, "rows": trend},
        "notes": notes,
    }

    out_dir = Path(cfg.output) if cfg.output else Path("example17_out")
    _write_atomic(out_dir / "report.json", _dump_json(bundle))
    gain_csv = "q,gain_measured,gain_identity\n" + "".join(
        f"{row['q']},{row['gain_measured']:.12e},{row['gain_identity']:.12e}\n"
        for row in sweep
    )
    _write_atomic(out_dir / "gain_sweep.csv", gain_csv)
    trend_csv = "operator,N,epsilon\n" + "".join(
        f"{row['operator']},{row['N']},{row['epsilon']:.12e}\n" for row in trend
    )
    _write_atomic(out_dir / "oracle_trend.csv", trend_csv)

    print(f"annulus radii: inner={w_lo!r} outer={w_hi!r}")
    print(_verdict_line("T (forward)", report_t.verdicts))
    print(_verdict_line("S (adjoint)", report_s.verdicts))
    for row in sweep:
        print(f"q={row['q']:<5} gain={row['gain_measured']:.6f}")
    print(f"wrote {out_dir / 'report.json'}")
    return EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "shadow": cmd_shadow,
    "probe": cmd_probe,
    "example17": cmd_example17,
}


@functools.cache  # argparse's per-argument help formatters cost about 1 ms per build
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowspec",
        description="Spectral verdicts and shadow trajectories for invertible linear operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "classify an operator and write a spectral report"),
        ("shadow", "generate a pseudo-orbit, construct and cross-check its shadow"),
        ("probe", "windowed sequence-operator gain ladder (CSV)"),
        ("example17", "reproduce the two-sided weighted shift case study"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="operator JSON file")
        p.add_argument("--output", help="report destination (file, or directory for example17)")
        p.add_argument("--tol", type=float, default=DEFAULT_GAP_TOL, help="unit-circle gap tolerance")
        p.add_argument("--seed", type=int, default=0, help="rng seed")
        p.add_argument(
            "--nodes", type=int, default=ContourConfig.nodes,
            help="contour nodes N (a power of two): the Riesz projector takes log2(N) "
            "squaring steps, step j being the 2^j-node trapezoid rule",
        )
        p.add_argument("--window", type=int, default=20, help="window half-width N")
        p.add_argument("--delta", type=float, default=1e-3, help="pseudo-orbit defect bound")
        p.add_argument("--q", type=float, default=None, help="shadow envelope rate in (worst decay rate, 1); default midway")
        p.add_argument("--kind", choices=("dense", "shift"), default=None, help="expected operator kind")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        if cfg.input and not Path(cfg.input).is_file():
            raise FileNotFoundError(cfg.input)
    except (ValueError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        return COMMANDS[cfg.command](cfg)
    except DecayCertificateError as exc:
        detail = ""
        if exc.r_plus is not None:
            detail = f" (r_plus={exc.r_plus:.6f}, r_minus={exc.r_minus:.6f})"
        print(f"certificate failure: {exc}{detail}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError, MemoryError) as exc:
        # malformed files, schema violations, kind mismatches, windows numpy cannot allocate
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ShadowspecError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
