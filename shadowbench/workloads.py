"""The three workloads: inputs made from a seed, one job, and its checks.

Each workload is a class with
  - `round_size`: jobs per round; a run attempts whole rounds only, and job
    i uses input slot i % round_size, so every round repeats the same work;
  - `min_jobs` and `tail_pct`: the run lasts at least min_jobs jobs, and
    tail_pct is the highest whole percentile with at least ten of min_jobs
    latencies beyond it;
  - `setup(sp, seed, workdir)`: make every input (the timed set-up);
  - `job(i)`: the program calls, and nothing else (the timed part);
  - `check(i, out)`: the correctness checks on the job's outputs, untimed.

Jobs call shadowspec through the package module `sp` at call time, so the
traced run's wrappers see them.  `tiny=True` shrinks every size for the
benchmark's own tests.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import checks

DELTA = 1e-3
INNER, OUTER = (0.45, 0.8), (1.25, 2.2)


def planted_operator(rng, d: int, on_circle: bool = False):
    """A = V diag(lam) V^-1 with V = I + (0.5/sqrt d) G, G complex Gaussian.

    Moduli come from (0.45, 0.8) u (1.25, 2.2), at least one on each side of
    the circle; on_circle puts the first one exactly on it instead.
    Returns (A, lam, V)."""
    moduli = np.empty(d)
    for k in range(d):
        lo, hi = (INNER if rng.uniform() < 0.5 else OUTER) if k > 1 else (INNER, OUTER)[k]
        moduli[k] = lo * math.exp(rng.uniform() * math.log(hi / lo))
    if on_circle:
        moduli[0] = 1.0
    lam = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    v = np.eye(d) + (0.5 / math.sqrt(d)) * g
    return v @ np.diag(lam) @ np.linalg.inv(v), lam, v


def _inverse(lam, v):
    return v @ np.diag(1.0 / lam) @ np.linalg.inv(v)


def _shadow_checks(a, a_inv, states, n_lo, delta, anchor, bound, residual, oracle_anchor):
    return [
        checks.defects(states, a, delta),
        checks.shadow_distance(states, a, a_inv, n_lo, anchor, bound),
        checks.recurrence(residual),
        checks.oracle_optimal(states, a, a_inv, n_lo, oracle_anchor, anchor),
    ]


class DenseShadow:
    """The `shadow` pipeline on fresh non-normal hyperbolic operators, d = 32."""

    tail_pct = 92

    def __init__(self, tiny: bool = False):
        self.d, self.window = (6, 8) if tiny else (32, 30)
        self.round_size = 2 if tiny else 32
        self.min_jobs = self.round_size if tiny else 128

    def setup(self, sp, seed: int, workdir: Path):
        self.sp = sp
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for _ in range(self.round_size):
            a, lam, v = planted_operator(rng, self.d)
            op = sp.DenseOperator(a)
            self.inputs.append((op, lam, v, int(rng.integers(2**31))))

    def job(self, i: int):
        sp = self.sp
        op, _, _, orbit_seed = self.inputs[i % self.round_size]
        report = sp.classify_dense(op)
        proj = sp.riesz_projector(op)
        orbit = sp.generate_pseudo_orbit(
            op, np.zeros(self.d), DELTA, (-self.window, self.window), rng_seed=orbit_seed
        )
        shadow = sp.construct_shadow(op, proj, orbit)
        oracle = sp.shadow_oracle_lsq(op, orbit)
        return report, proj, orbit, shadow, oracle

    def check(self, i: int, out):
        report, proj, orbit, shadow, oracle = out
        op, lam, v, _ = self.inputs[i % self.round_size]
        a = op.entries
        states = np.stack([np.asarray(s) for s in orbit.states])
        return [
            checks.verdicts(report.verdicts.to_json(), dict.fromkeys(
                ("hyperbolic", "uniformly_expansive", "shadowing"), True)),
            checks.projector(proj.entries, v, lam),
            *_shadow_checks(
                a, _inverse(lam, v), states, orbit.n_lo, DELTA, shadow.anchor,
                shadow.epsilon_bound, shadow.recurrence_residual, oracle.best_anchor,
            ),
        ]


class SmallDense:
    """Many small operators (d = 2..8) through the CLI and the spectral
    certificates; one in five has an eigenvalue exactly on the unit circle."""

    tail_pct = 95
    shadow_window = 10

    def __init__(self, tiny: bool = False):
        # slot i has d = 2 + i % 7 and an on-circle eigenvalue when i % 5 == 4;
        # 35 slots cover every pairing once
        self.round_size = 5 if tiny else 35
        self.min_jobs = self.round_size if tiny else 210

    def setup(self, sp, seed: int, workdir: Path):
        self.sp = sp
        self.workdir = workdir
        rng = np.random.default_rng([seed, 2])
        self.inputs = []
        for slot in range(self.round_size):
            on_circle = slot % 5 == 4
            a, lam, v = planted_operator(rng, 2 + slot % 7, on_circle)
            op = sp.DenseOperator(a)
            path = workdir / f"op{slot}.json"
            path.write_text(json.dumps(sp.operator_to_json(op)), encoding="utf-8")
            self.inputs.append((op, lam, v, on_circle, str(path), int(rng.integers(2**31))))

    def _out(self, name: str) -> str:
        return str(self.workdir / name)

    def job(self, i: int):
        sp = self.sp
        op, _, _, _, path, cli_seed = self.inputs[i % self.round_size]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = (
                sp.cli.main(["analyze", "--input", path, "--output", self._out("analyze.json")]),
                sp.cli.main([
                    "shadow", "--input", path, "--output", self._out("shadow.json"),
                    "--window", str(self.shadow_window), "--seed", str(cli_seed),
                ]),
                sp.cli.main(["probe", "--input", path, "--output", self._out("probe.csv"),
                             "--window", "8"]),
            )
        try:
            table = sp.laurent_table(op, 6)
            relations = sp.verify_laurent_relations(op, table)
        except sp.ContourThroughSpectrumError:
            table = relations = None
        duality = sp.duality_check(op)
        sp.expansivity_witness(op, n_max=20, samples=48)
        return codes, table, relations, duality

    def check(self, i: int, out):
        codes, table, relations, duality = out
        op, lam, v, on_circle, _, cli_seed = self.inputs[i % self.round_size]
        expected = not on_circle
        analyze = json.loads(Path(self._out("analyze.json")).read_text(encoding="utf-8"))
        gains = [
            float(line.split(",")[1])
            for line in Path(self._out("probe.csv")).read_text(encoding="utf-8").split()[1:]
        ]
        result = [
            checks.outcome("exit_codes", codes, (0, 0 if expected else 4, 0)),
            checks.verdicts(analyze["report"]["verdicts"], dict.fromkeys(
                ("hyperbolic", "uniformly_expansive", "shadowing"), expected)),
            checks.probe_ladder(gains),
            checks.Check("duality_check", duality.passes),
            checks.outcome("contour_error", table is None, on_circle),
        ]
        if table is not None:
            result.append(checks.projector(table.coefficient(-1).entries, v, lam))
            result.append(checks.Check(
                "laurent_relations", relations.passes, f"worst {relations.worst():.3e}"))
        if codes[1] == 0:
            report = json.loads(Path(self._out("shadow.json")).read_text(encoding="utf-8"))
            shadow, oracle = report["shadow"], report["oracle"]
            w = self.shadow_window
            # the orbit is the CLI's input data: regenerate it from the same seed
            orbit = self.sp.generate_pseudo_orbit(
                op, np.zeros(op.dim), DELTA, (-w, w), rng_seed=cli_seed)
            states = np.stack([np.asarray(s) for s in orbit.states])
            result += _shadow_checks(
                op.entries, _inverse(lam, v), states, -w, DELTA, _complex(shadow["anchor"]),
                shadow["epsilon_bound"], shadow["recurrence_residual"],
                _complex(oracle["best_anchor"]),
            )
        for name in ("analyze.json", "shadow.json", "probe.csv"):
            Path(self._out(name)).unlink(missing_ok=True)
        return result


def _complex(pairs):
    return np.array([complex(re, im) for re, im in pairs])


class ShiftStudy:
    """The weighted-shift case study: T forward with weights 2*sqrt(2) and
    1/(2*sqrt(2)), S = T*.  Job i classifies T and S, runs the S and T
    oracles at window N = windows[i % 4], the l1 gain of T at q = 1.2 and
    then q = 1.1, and the probe ladder.

    Both gains run in every job: alternating q between jobs made the latency
    distribution bimodal (the two calls cost about 0.27 s and 0.47 s), which
    put the median in the gap between the modes."""

    tail_pct = 75
    radius = 30

    def __init__(self, tiny: bool = False):
        self.windows = (2, 4) if tiny else (8, 16, 32, 64)
        self.qs = (2.0,) if tiny else (1.2, 1.1)
        self.ladder = (1, 2) if tiny else (1, 2, 4, 8)
        self.round_size = len(self.windows)
        self.min_jobs = self.round_size if tiny else 40

    def setup(self, sp, seed: int, workdir: Path):
        self.sp = sp
        w = 2.0 * math.sqrt(2.0)
        self.t = sp.ShiftOperator("forward", w, 1.0 / w, 0)
        self.s = sp.adjoint(self.t)
        self.eigvec = sp.shift_eigenvector(self.s, 1.0, radius=self.radius)
        rng = np.random.default_rng([seed, 3])
        self.orbit_seeds = [int(x) for x in rng.integers(2**31, size=self.round_size)]
        self.trend = ([], [])

    def job(self, i: int):
        sp = self.sp
        slot = i % self.round_size
        n = self.windows[slot]
        verdicts = (sp.classify_shift(self.t), sp.classify_shift(self.s))
        orbits, oracles = [], []
        for op in (self.s, self.t):
            orbit = sp.generate_pseudo_orbit(
                op, sp.basis_vector(0), DELTA, (-n, n), rng_seed=self.orbit_seeds[slot])
            orbits.append(orbit)
            oracles.append(sp.shadow_oracle_lsq(op, orbit))
        gains = [sp.bgain_test_sequence(self.t, self.eigvec, q) for q in self.qs]
        probes = [sp.window_probe(self.t, "script-B", k, k + 8) for k in self.ladder]
        return n, verdicts, orbits, oracles, gains, probes

    def check(self, i: int, out):
        n, (rep_t, rep_s), orbits, oracles, gains, probes = out
        w_hi = 2.0 * math.sqrt(2.0)
        result = [
            checks.verdicts(rep_t.verdicts.to_json(), {
                "hyperbolic": False, "uniformly_expansive": True, "shadowing": False}),
            checks.verdicts(rep_s.verdicts.to_json(), {
                "hyperbolic": False, "uniformly_expansive": False, "shadowing": True}),
            *(checks.annulus(r.shift_spectra.annulus_inner, r.shift_spectra.annulus_outer,
                             1.0 / w_hi, w_hi) for r in (rep_t, rep_s)),
            checks.probe_ladder([p.gain for p in probes]),
        ]
        for q, gain in zip(self.qs, gains):
            result += [checks.l1_gain(gain.gain_measured, q), checks.l1_gain(gain.gain_identity, q)]
        half = n + 2
        for op, orbit in zip((self.s, self.t), orbits):
            a = checks.shift_window_matrix(
                op.direction, op.weight_pos, op.weight_neg, op.crossover, half)
            states = np.stack([s.to_window_array(half) for s in orbit.states])
            result.append(checks.defects(states, a, DELTA))
        # the trend compares this job's window with the smaller ones of its round
        if n == self.windows[0]:
            self.trend = ([], [])
        self.trend[0].append(oracles[0].epsilon_achieved)
        self.trend[1].append(oracles[1].epsilon_achieved)
        result.append(checks.oracle_trend(*self.trend))
        return result


WORKLOADS = {
    "dense-shadow": DenseShadow,
    "small-dense": SmallDense,
    "shift-study": ShiftStudy,
}
