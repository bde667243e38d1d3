"""Span recorder and call wrappers that give the per-layer benchmark numbers.

A layer is one ``dynamo`` module.  While a ``Recorder`` is installed with
``instrument``, every public function of the toolkit modules (plus a few
methods that carry the heavy work) runs inside a span named
``<module>.<function>``.  A span's self time is its duration minus the
durations of the spans it encloses, so the self times of all spans add up to
the total duration of the outermost spans; whatever the benchmark's own code
does between calls is left unspanned.  Calls into ``scipy.linalg`` and
``scipy.fft`` get counters only, attributed to the enclosing module span.

Everything is restored when ``instrument`` exits, so untraced runs execute
the toolkit unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("fields", "alpha", "modal", "evolve", "bloch", "glue", "cli")

# Methods that do a layer's heavy work but are not module-level functions,
# as (module, class, method, span name).  Constructing a RieszProjector is
# where its contour sums run.
_METHODS = (
    ("modal", "RieszProjector", "__init__", "modal.RieszProjector"),
    ("modal", "RieszProjector", "apply_block", "modal.RieszProjector.apply_block"),
    ("bloch", "BlochFamily", "box_mass", "bloch.box_mass"),
)

_EVAL = ("fields.eval_at_points", "fields.eval_jacobian_at_points", "fields.eval_hessian_at_points")
_CONTOUR = (
    "modal.RieszProjector", "modal.RieszProjector.apply_block",
    "modal.continue_in_eps", "modal.eps_lipschitz", "modal.projector_distance_bound",
)


class Recorder:
    """Open-span stack with per-name self time, call counts and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self._stack: list[list] = []  # [name, start, enclosed child time]

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s
        return out


# ---------------------------------------------------------------------------
# counters attached to particular spans


def _hook_eval(rec, out):
    rec.count("fields.eval.points", len(out))


def _hook_assemble(rec, out):
    rec.counts["modal.assemble_dense.dim_max"] = max(rec.counts["modal.assemble_dense.dim_max"], out.shape[0])
    if rec.inside("modal.continue_in_eps"):
        rec.count("modal.continue_in_eps.assemblies")


def _hook_continue(rec, out):
    rec.count("modal.continue_in_eps.accepted", len(out.path) - 1)


def _hook_evolve(rec, out):
    rec.count("evolve.steps", round(out.t_end / out.dt))


def _hook_box_mass(rec, out):
    rec.count("bloch.box_mass.radii", len(out))


def _hook_check_catalog(rec, out):
    rec.count("glue.check_catalog.rows", len(out.rows))


_HOOKS = {
    "fields.eval_at_points": _hook_eval,
    "fields.eval_jacobian_at_points": _hook_eval,
    "fields.eval_hessian_at_points": _hook_eval,
    "modal.assemble_dense": _hook_assemble,
    "modal.continue_in_eps": _hook_continue,
    "evolve.evolve": _hook_evolve,
    "bloch.box_mass": _hook_box_mass,
    "glue.check_catalog": _hook_check_catalog,
}


def _spanned(rec: Recorder, name: str, fn):
    hook = _HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close()
        if hook is not None:
            hook(rec, out)
        return out

    return wrapper


# ---------------------------------------------------------------------------
# library boundary: counted, not spanned


def _complex_factor(a) -> int:
    return 4 if a.dtype.kind == "c" else 1


def _counted(rec: Recorder, key: str, fn, flops=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(f"scipy.{key}.calls")
        if flops is not None:
            rec.count(f"scipy.{key}.flops_est", flops(args[0]))
        return fn(*args, **kwargs)

    return wrapper


# Textbook real-arithmetic operation counts (Golub & Van Loan), times 4 for
# complex data: LU 2n^3/3, nonsymmetric QR eigenvalues 10n^3, with vectors 25n^3.
def _lu_flops(a) -> float:
    return _complex_factor(a) * 2.0 / 3.0 * a.shape[0] ** 3


def _eig_flops(a) -> float:
    return _complex_factor(a) * 25.0 * a.shape[0] ** 3


def _eigvals_flops(a) -> float:
    return _complex_factor(a) * 10.0 * a.shape[0] ** 3


def _library_patches(rec: Recorder):
    import scipy.fft
    import scipy.linalg

    yield scipy.linalg, "eig", _counted(rec, "eig", scipy.linalg.eig, _eig_flops)
    yield scipy.linalg, "eigvals", _counted(rec, "eig", scipy.linalg.eigvals, _eigvals_flops)
    yield scipy.linalg, "lu_factor", _counted(rec, "lu", scipy.linalg.lu_factor, _lu_flops)
    yield scipy.linalg, "solve", _counted(rec, "lu", scipy.linalg.solve, _lu_flops)
    for name in ("fftn", "ifftn"):
        yield scipy.fft, name, _counted(rec, "fft", getattr(scipy.fft, name))


def _toolkit_patches(rec: Recorder):
    """(owner, attribute, wrapper) for every spanned toolkit entry point."""
    modules = [m for k, m in sys.modules.items() if k == "dynamo" or k.startswith("dynamo.")]
    for layer in LAYERS:
        mod = sys.modules[f"dynamo.{layer}"]
        names = ["main"] if layer == "cli" else [
            n for n, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
        ]
        for n in names:
            fn = getattr(mod, n)
            wrapper = _spanned(rec, f"{layer}.{n}", fn)
            # rebind every module-level reference, including `from x import f`
            for other in modules:
                for attr, val in vars(other).items():
                    if val is fn:
                        yield other, attr, wrapper
    for layer, cls_name, meth, name in _METHODS:
        cls = getattr(sys.modules[f"dynamo.{layer}"], cls_name)
        yield cls, meth, _spanned(rec, name, vars(cls)[meth])


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Install span wrappers and library counters; restore them on exit."""
    saved = []
    try:
        for owner, attr, wrapper in [*_toolkit_patches(rec), *_library_patches(rec)]:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced batch

PER_LAYER = {
    "fields.cross.calls": "count",
    "fields.cross.self_s": "s",
    "fields.eval.points": "count",
    "fields.eval.self_s": "s",
    "fields.self_s": "s",
    "alpha.solve_cell_problem.calls": "count",
    "alpha.solve_cell_problem.self_s": "s",
    "alpha.self_s": "s",
    "modal.leading_eigs.calls": "count",
    "modal.leading_eigs.self_s": "s",
    "modal.assemble_dense.calls": "count",
    "modal.assemble_dense.self_s": "s",
    "modal.assemble_dense.dim_max": "count",
    "modal.apply_modal.calls": "count",
    "modal.apply_modal.self_s": "s",
    "modal.first_order_check.self_s": "s",
    "modal.contour.self_s": "s",
    "modal.continue_in_eps.attempts": "count",
    "modal.continue_in_eps.accepted": "count",
    "modal.self_s": "s",
    "evolve.evolve.calls": "count",
    "evolve.steps": "count",
    "evolve.step_s": "s",
    "evolve.self_s": "s",
    "bloch.box_mass.calls": "count",
    "bloch.box_mass.radii": "count",
    "bloch.box_mass.self_s": "s",
    "bloch.prepare_band_pairs.self_s": "s",
    "bloch.synthesize.self_s": "s",
    "bloch.self_s": "s",
    "glue.check_catalog.self_s": "s",
    "glue.check_catalog.rows": "count",
    "glue.self_s": "s",
    "cli.main.self_s": "s",
    "scipy.eig.calls": "count",
    "scipy.eig.flops_est": "flop",
    "scipy.lu.calls": "count",
    "scipy.lu.flops_est": "flop",
    "scipy.fft.calls": "count",
    "trace.unspanned_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced batch whose wall time was ``wall_s``.

    ``trace.overhead_frac`` needs the untraced wall time and is filled in by
    the caller.
    """
    layers = rec.layer_self_s()
    out = {f"{layer}.self_s": layers[layer] for layer in LAYERS if layer != "cli"}
    out["cli.main.self_s"] = layers["cli"]
    for name in ("fields.cross", "alpha.solve_cell_problem", "modal.leading_eigs",
                 "modal.assemble_dense", "modal.apply_modal", "evolve.evolve", "bloch.box_mass"):
        out[f"{name}.calls"] = rec.calls[name]
    for name in ("fields.cross", "alpha.solve_cell_problem", "modal.leading_eigs",
                 "modal.assemble_dense", "modal.apply_modal", "modal.first_order_check",
                 "bloch.box_mass", "bloch.prepare_band_pairs", "bloch.synthesize",
                 "glue.check_catalog"):
        out[f"{name}.self_s"] = rec.self_s.get(name, 0.0)
    out["fields.eval.self_s"] = sum(rec.self_s.get(n, 0.0) for n in _EVAL)
    out["modal.contour.self_s"] = sum(rec.self_s.get(n, 0.0) for n in _CONTOUR)
    # the first assembly of each continuation call is the start operator,
    # whose spectrum fixes the contour radius; the rest are trial steps
    out["modal.continue_in_eps.attempts"] = (
        rec.counts["modal.continue_in_eps.assemblies"] - rec.calls["modal.continue_in_eps"]
    )
    steps = rec.counts["evolve.steps"]
    out["evolve.step_s"] = rec.self_s.get("evolve.evolve", 0.0) / steps if steps else 0.0
    for name in ("fields.eval.points", "modal.assemble_dense.dim_max", "modal.continue_in_eps.accepted",
                 "evolve.steps", "bloch.box_mass.radii", "glue.check_catalog.rows",
                 "scipy.eig.calls", "scipy.eig.flops_est", "scipy.lu.calls", "scipy.lu.flops_est",
                 "scipy.fft.calls"):
        out[name] = rec.counts[name]
    out["trace.unspanned_s"] = wall_s - rec.root_s
    return out


def self_time_balance(rec: Recorder, wall_s: float) -> float:
    """|sum of layer self times + unspanned time - wall| relative to wall."""
    total = sum(rec.layer_self_s().values()) + (wall_s - rec.root_s)
    return abs(total - wall_s) / wall_s
