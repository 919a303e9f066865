"""Per-layer tracing for the benchmark's traced run.

`Tracer.install` wraps every public function of shadowspec's modules at each
place a module binds it (module globals and module-level dicts such as the
CLI's command table), so calls between modules, calls inside a module and
the benchmark's own calls through the package all open a span.  Spans nest
on a stack; each closed span adds its duration to its parent's child time,
and its self time is its duration minus that child time.  Spans are folded
into per-function totals as they close, so memory stays flat however many
calls a job makes.  Nothing in the package itself changes, and `restore`
puts every binding back.  Inside `paused()` the wrappers record nothing, so
work done outside the jobs (the checks) stays out of the figures.
"""

import contextlib
import inspect
import sys
import types
from time import perf_counter

LAYERS = ("operators", "spectral", "projector", "shadowing")
PACKAGE = "shadowspec"

# (metric, unit, kind, span names).  kind is "ms" (total time), "self_ms",
# "count" (calls) or "extra" (a value taken from calls' arguments or results).
# All are per job; a function that no longer exists reads 0.
METRICS = (
    ("operators.supported_vector.count", "count", "extra", ("supported_vector",)),
    ("operators.apply.count", "count", "count", ("operators.apply",)),
    ("operators.materialize.ms", "ms", "ms", ("operators.materialize",)),
    ("operators.json.ms", "ms", "ms", ("operators.operator_to_json", "operators.operator_from_json")),
    ("spectral.classify_dense.ms", "ms", "ms", ("spectral.classify_dense",)),
    ("spectral.classify_shift.ms", "ms", "ms", ("spectral.classify_shift",)),
    ("spectral.duality_check.ms", "ms", "ms", ("spectral.duality_check",)),
    ("spectral.expansivity_witness.ms", "ms", "ms", ("spectral.expansivity_witness",)),
    ("projector.riesz_projector.ms", "ms", "ms", ("projector.riesz_projector",)),
    ("projector.laurent_table.ms", "ms", "ms", ("projector.laurent_table",)),
    ("projector.verify_laurent_relations.ms", "ms", "ms", ("projector.verify_laurent_relations",)),
    ("projector.decay_rates.self_ms", "ms", "self_ms", ("projector.decay_rates",)),
    ("projector.splitting_power_stacks.ms", "ms", "ms", ("projector.splitting_power_stacks",)),
    ("projector.splitting_power_stacks.count", "count", "count", ("projector.splitting_power_stacks",)),
    ("projector.power_kernels", "count", "extra", ("power_kernels",)),
    ("shadowing.generate_pseudo_orbit.ms", "ms", "ms", ("shadowing.generate_pseudo_orbit",)),
    ("shadowing.construct_shadow.self_ms", "ms", "self_ms", ("shadowing.construct_shadow",)),
    ("shadowing.construct_shadow.tail_K", "count", "extra", ("tail_K",)),
    ("shadowing.shadow_oracle_lsq.ms", "ms", "ms", ("shadowing.shadow_oracle_lsq",)),
    ("shadowing.window_probe.ms", "ms", "ms", ("shadowing.window_probe",)),
    ("shadowing.window_probe.matrix_mib", "MiB", "extra", ("window_probe_matrix_mib",)),
    ("shadowing.bgain_test_sequence.ms", "ms", "ms", ("shadowing.bgain_test_sequence",)),
    ("cli.analyze.self_ms", "ms", "self_ms", ("cli.analyze",)),
    ("cli.shadow.self_ms", "ms", "self_ms", ("cli.shadow",)),
    ("cli.probe.self_ms", "ms", "self_ms", ("cli.probe",)),
)


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _power_kernels(fn, args, kwargs, result):
    # one forward and one backward kernel for each k = 0..k_max
    return "power_kernels", 2 * (int(_arguments(fn, args, kwargs)["k_max"]) + 1)


def _tail_k(fn, args, kwargs, result):
    return "tail_K", getattr(result, "tail_K", 0) or 0


def _probe_matrix_mib(fn, args, kwargs, result):
    bound = _arguments(fn, args, kwargs)
    op, kind, n, m = bound["op"], bound["kind"], bound["n"], bound.get("m")
    d = op.dim if hasattr(op, "dim") else 2 * m + 1
    rows = 2 * n + 2 if kind == "script-B" else 2 * n
    return "window_probe_matrix_mib", rows * d * (2 * n + 1) * d * 16 / 2**20


HOOKS = {
    "projector.splitting_power_stacks": _power_kernels,
    "shadowing.construct_shadow": _tail_k,
    "shadowing.window_probe": _probe_matrix_mib,
}


class Tracer:
    def __init__(self):
        self.calls = {}  # span name -> [count, total_s, self_s]
        self.extra = {}
        self._stack = []
        self._patches = []
        self._active = True

    def reset(self):
        for rec in self.calls.values():
            rec[:] = [0, 0.0, 0.0]
        self.extra.clear()

    def _add_extra(self, key, value):
        self.extra[key] = self.extra.get(key, 0.0) + value

    def _wrap(self, name, fn):
        stack = self._stack
        record = self.calls.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                record[0] += 1
                record[1] += dt
                record[2] += dt - child
            if hook is not None:
                self._add_extra(*hook(fn, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self):
        """Original function -> wrapper, for every public function of the layers."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    targets[fn] = self._wrap(f"{layer}.{fname}", fn)
        cli = sys.modules.get(f"{PACKAGE}.cli")
        for fname, fn in vars(cli).items() if cli else ():
            if fname.startswith("cmd_") and isinstance(fn, types.FunctionType):
                targets[fn] = self._wrap(f"cli.{fname[4:]}", fn)
        return targets

    def install(self):
        """Wrap every binding of the package's public functions, and count
        SupportedVector constructions at its __init__."""
        targets = self._targets()
        modules = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in targets:
                    self._patches.append((mod.__dict__, attr, val))
                    setattr(mod, attr, targets[val])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if isinstance(item, types.FunctionType) and item in targets:
                            self._patches.append((val, key, item))
                            val[key] = targets[item]
        vector = getattr(sys.modules.get(f"{PACKAGE}.operators"), "SupportedVector", None)
        if vector is not None and "__init__" in vars(vector):
            original = vars(vector)["__init__"]

            def counted(*args, **kwargs):
                if self._active:
                    self._add_extra("supported_vector", 1)
                return original(*args, **kwargs)

            setattr(vector, "__init__", counted)
            self._patches.append((vector, "__init__", original))

    @contextlib.contextmanager
    def paused(self):
        """Run the body with every wrapper passing straight through."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def restore(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def metrics(self, jobs: int) -> dict:
        """Every per-layer metric, per job, as {name: (value, unit)}."""
        out = {}
        for metric, unit, kind, keys in METRICS:
            if kind == "extra":
                total = sum(self.extra.get(k, 0.0) for k in keys)
            else:
                recs = [self.calls.get(k, [0, 0.0, 0.0]) for k in keys]
                total = sum(
                    r[0] if kind == "count" else 1000.0 * (r[2] if kind == "self_ms" else r[1])
                    for r in recs
                )
            out[metric] = (total / jobs, unit)
        return out

    def summary(self, jobs: int) -> dict:
        """Per-function calls, total and self milliseconds, per job."""
        return {
            name: {"calls": c / jobs, "ms": 1000.0 * t / jobs, "self_ms": 1000.0 * s / jobs}
            for name, (c, t, s) in sorted(self.calls.items())
            if c
        }
