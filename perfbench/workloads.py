"""Seeded inputs, task batches and correctness checks of the three workloads.

Each workload is a closed loop of toolkit calls made one after another from
one process.  Where a CLI subcommand covers a step it is driven through
``dynamo.cli.main(argv)`` in-process; every other step calls the library.
Solvers always run with their default ``method``.

- ``spectrum``: alpha scan, a dense N = 3 eigensolve, the first-order (Kato)
  check and the N = 2 contour block (continuation in eps, Lipschitz
  estimate, Riesz projector, projector distance bound).  Large eigensolves
  and resolvent factorizations do most of the work.
- ``timestep``: one N = 3 eigensolve, then three stepper runs with a fixed
  number of steps each, so stepping is most of the wall time.
- ``band``: Bloch band mass and gluing.  Many tiny N = 1 eigensolves and the
  box-mass correlation tensor do most of the work; there is no large
  eigensolve, contour or time stepping.

A batch returns its task outputs; ``check_*`` and ``oracles_*`` judge them
outside the timed region.
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dynamo import alpha, bloch, cli, glue, modal
from dynamo import evolve as ev
from dynamo import fields as df

KATO_MAGNITUDES = "0.01,0.005,0.0025"
EPS_SAMPLES = (0.9, 0.81, 0.729)
SWEEP_EPS = (1.0, 0.9, 0.81)
# stepper runs are sized in steps of the default dt, so the work per batch
# does not depend on the drawn amplitudes
STEPS_EIGENVECTOR = 3000
STEPS_SHORT = 1500


@dataclass(frozen=True)
class Inputs:
    """Everything the toolkit receives, drawn from the workload seed."""

    seed: int
    abc: tuple[float, float, float]
    j: tuple[float, float, float]           # modal wavevector, |j| in [0.035, 0.05]
    kato_direction: tuple[float, float, float]
    eps_perturbed: float                    # second diffusivity of the projector comparison
    band_center: tuple[float, float, float]
    band_half_width: float
    parseval_amplitude: tuple[complex, complex, complex]
    parseval_center: tuple[float, float, float]
    tail_amplitude: tuple[complex, complex, complex]
    tail_center: tuple[float, float, float]
    probe_seed: int

    def flow(self) -> df.SpectralField:
        return df.make_abc(df.AbcParams(*self.abc))

    def as_dict(self) -> dict:
        return {k: [str(x) if isinstance(x, complex) else x for x in v] if isinstance(v, tuple) else v
                for k, v in vars(self).items()}


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _axis_vector(rng, magnitude: float) -> tuple[float, float, float]:
    v = np.zeros(3)
    v[rng.integers(3)] = magnitude * rng.choice((-1.0, 1.0))
    return tuple(float(x) for x in v)


def _complex3(rng) -> tuple[complex, complex, complex]:
    return tuple(complex(x) for x in rng.standard_normal(3) + 1j * rng.standard_normal(3))


def generate(seed: int) -> Inputs:
    """ABC amplitudes near delta0 = 0.3, wavevector directions and magnitudes."""
    rng = np.random.default_rng(seed)
    abc = tuple(float(x) for x in rng.uniform(0.27, 0.33, size=3))
    j = _unit(rng) * rng.uniform(0.035, 0.05)
    return Inputs(
        seed=seed,
        abc=abc,
        j=tuple(float(x) for x in j),
        kato_direction=tuple(float(x) for x in _unit(rng)),
        eps_perturbed=float(rng.uniform(0.94, 0.98)),
        band_center=_axis_vector(rng, float(rng.uniform(0.1, 0.12))),
        band_half_width=0.1,
        parseval_amplitude=_complex3(rng),
        parseval_center=_axis_vector(rng, float(rng.uniform(0.18, 0.25))),
        tail_amplitude=_complex3(rng),
        tail_center=tuple(float(x) for x in rng.uniform(0.3, 0.5, size=3) * rng.choice((-1.0, 1.0), size=3)),
        probe_seed=int(rng.integers(2**31)),
    )


def _vec(v) -> str:
    return ",".join(repr(float(x)) for x in v)


# ---------------------------------------------------------------------------
# task bookkeeping


class Batch:
    """Outputs of one batch, with the error of every task that raised."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.results: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.cli_steps: list[str] = []

    def run(self, name: str, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        # a failing task is counted, not fatal; argparse rejects bad argv with SystemExit
        except (Exception, SystemExit):
            self.errors[name] = traceback.format_exc(limit=3)
            out = None
        self.results[name] = out
        return out

    def cli(self, name: str, argv: list[str]) -> Path:
        out = self.outdir / name
        self.cli_steps.append(name)
        code = self.run(name, lambda: cli.main([*argv, "--out", str(out)]))
        if code not in (None, 0):
            self.errors[name] = f"exit code {code}"
        return out

    def report(self, name: str) -> dict:
        return json.loads((self.outdir / name / "manifest.json").read_text())["report"]

    def rows(self, name: str, csv_name: str) -> list[dict]:
        with open(self.outdir / name / csv_name, newline="") as fh:
            return list(csv.DictReader(fh))


def _verdict(check) -> tuple[bool, str]:
    """Run one check; a check that raises has failed."""
    try:
        return check()
    except Exception:
        return False, traceback.format_exc(limit=3)


def judge(batch: Batch, checks) -> dict[str, list[str]]:
    """Problems of the failed tasks: errors raised in the batch, then failed checks."""
    problems = {name: [err] for name, err in batch.errors.items()}
    for name, check in checks:
        if name not in problems:
            ok, what = _verdict(check)
            if not ok:
                problems[name] = [what]
    return problems


def run_oracles(oracles) -> dict[str, list[str]]:
    """Problems per oracle, an empty list for each one that passed."""
    results = {name: _verdict(check) for name, check in oracles}
    return {name: [] if ok else [what] for name, (ok, what) in results.items()}


# ---------------------------------------------------------------------------
# spectrum


def warm_spectrum(inp: Inputs, outdir: Path) -> None:
    flow = inp.flow()
    modal.leading_eigs(modal.ModalOperatorSpec(flow, inp.j, 1.0, 1), count=2)
    alpha.solve_cell_problem(flow, [1.0, 0.0, 0.0], truncation=1)
    cli.main(["field", "make-abc", "--abc=" + _vec(inp.abc), "--out", str(outdir)])


def batch_spectrum(inp: Inputs, outdir: Path) -> Batch:
    b = Batch(outdir)
    abc, j = _vec(inp.abc), _vec(inp.j)
    flow = inp.flow()
    b.cli("alpha-scan", ["alpha", "scan", "--abc=" + abc, "--truncation", "3"])
    b.cli("spectrum-eigs", ["spectrum", "eigs", "--abc=" + abc, "--j=" + j, "--truncation", "3"])
    b.cli("spectrum-kato", ["spectrum", "kato", "--abc=" + abc, "--direction=" + _vec(inp.kato_direction),
                            "--jmags", KATO_MAGNITUDES, "--truncation", "2"])
    # later steps read earlier outputs inside their lambdas, so a failed
    # step makes its dependants fail as tasks instead of ending the batch
    pairs = b.run("leading_eigs", modal.leading_eigs, modal.ModalOperatorSpec(flow, inp.j, 1.0, 2), count=2)
    path = b.run("continue_in_eps", lambda: modal.continue_in_eps(flow, inp.j, pairs[0], 0.9, truncation=2))
    b.run("eps_lipschitz", lambda: modal.eps_lipschitz(
        flow, inp.j, pairs[0].field, modal.Contour(pairs[0].p, 0.5 * abs(pairs[0].p - pairs[1].p), 16),
        1.0 - path.window, 1.0, truncation=2, step=path.window / 2))
    b.run("RieszProjector", modal.RieszProjector,
          modal.ModalOperatorSpec(flow, np.zeros(3), 1.0, 2), modal.Contour(0.0, 0.5, 16))
    b.run("projector_distance_bound", modal.projector_distance_bound,
          modal.ModalOperatorSpec(flow, inp.j, 1.0, 2),
          modal.ModalOperatorSpec(flow, inp.j, inp.eps_perturbed, 2),
          modal.Contour(0.0, 0.5, 8))
    return b


def check_spectrum(inp: Inputs, b: Batch) -> dict[str, list[str]]:
    r = b.results

    def held():
        start = r["leading_eigs"][0].p.real
        path = r["continue_in_eps"]
        ok = path.window >= 0.02 and all(p.p.real >= 0.5 * start for _, p in path.path)
        return ok, f"continuation window {path.window:.4f} >= 0.02 with Re p held"

    def projector_bound():
        c = r["projector_distance_bound"]
        return c.measured <= c.bound and c.rank0 == c.rank1, (
            f"distance {c.measured:.3e} <= bound {c.bound:.3e}, ranks {c.rank0} == {c.rank1}")

    return judge(b, [
        ("alpha-scan", lambda: (b.report("alpha-scan")["certified"] is True, "scan certified")),
        ("spectrum-eigs", lambda: (float(b.rows("spectrum-eigs", "eigs.csv")[0]["p_re"]) > 0.0, "Re p > 0")),
        ("spectrum-kato", lambda: (b.report("spectrum-kato")["slope"] >= 1.8, "first-order slope >= 1.8")),
        ("leading_eigs", lambda: (r["leading_eigs"][0].p.real > 0.0, "Re p > 0 at N = 2")),
        ("continue_in_eps", held),
        ("eps_lipschitz", lambda: (r["eps_lipschitz"].rel_change <= 0.20, "Lipschitz constant stable to 20%")),
        ("RieszProjector", lambda: (r["RieszProjector"].idempotency_defect <= 1e-8, "idempotency defect <= 1e-8")),
        ("projector_distance_bound", projector_bound),
    ])


def oracles_spectrum(inp: Inputs, outdir: Path) -> dict[str, list[str]]:
    def apply_vs_dense():
        spec = modal.ModalOperatorSpec(inp.flow(), inp.j, 1.0, 3)
        dense = modal.assemble_dense(spec)
        rng = np.random.default_rng(inp.probe_seed)
        worst = 0.0
        for _ in range(4):
            h = df.random_complex_field(3, rng)
            lhs = modal.field_to_vec(modal.apply_modal(spec, h))
            rhs = dense @ modal.field_to_vec(h)
            worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
        return worst <= 1e-12, f"matrix-free vs dense apply {worst:.2e} <= 1e-12"

    return run_oracles([("oracle.apply-vs-dense", apply_vs_dense)])


# ---------------------------------------------------------------------------
# timestep


def warm_timestep(inp: Inputs, outdir: Path) -> None:
    spec = modal.ModalOperatorSpec(inp.flow(), inp.j, 1.0, 1)
    pair = modal.leading_eigs(spec, count=1)[0]
    ev.evolve(spec, pair.field, 10 * ev.default_dt(spec), project=True)
    cli.main(["field", "make-abc", "--abc=" + _vec(inp.abc), "--out", str(outdir)])


def batch_timestep(inp: Inputs, outdir: Path) -> Batch:
    b = Batch(outdir)
    flow = inp.flow()
    spec = modal.ModalOperatorSpec(flow, inp.j, 1.0, 3)
    half = modal.ModalOperatorSpec(flow, inp.j, 0.5, 3)
    pairs = b.run("leading_eigs", modal.leading_eigs, spec, count=1)
    run = b.run("evolve.eigenvector", lambda: ev.evolve(
        spec, pairs[0].field, STEPS_EIGENVECTOR * ev.default_dt(spec)))
    b.run("fit_growth", lambda: ev.fit_growth(run))
    b.cli("evolve-random", ["evolve", "--abc=" + _vec(inp.abc), "--j=" + _vec(inp.j), "--truncation", "3",
                            "--t-end", repr(STEPS_SHORT * ev.default_dt(spec)), "--init", "random",
                            "--project", "--seed", str(inp.seed)])
    slow = b.run("evolve.half-diffusivity", lambda: ev.evolve(
        half, pairs[0].field, STEPS_SHORT * ev.default_dt(half)))
    b.run("energy_monitor", lambda: [ev.energy_monitor(x) for x in (run, slow)])
    b.run("divergence_drift", lambda: [ev.divergence_drift(x) for x in (run, slow)])
    return b


def check_timestep(inp: Inputs, b: Batch) -> dict[str, list[str]]:
    r = b.results

    def growth():
        p = r["leading_eigs"][0].p.real
        rel = abs(r["fit_growth"].gamma - p) / abs(p)
        return rel <= 0.01, f"fitted rate off Re p = {p:.4g} by {rel:.2%} <= 1%"

    def steps(name, want):
        got = len(r[name].trace.t) - 1
        return got == want, f"{got} steps == {want}"

    def random_start():
        rep = b.report("evolve-random")
        return rep["bounds_ok"] is True and rep["samples"] == STEPS_SHORT + 1, (
            f"growth and energy bounds hold over {STEPS_SHORT} steps")

    return judge(b, [
        ("leading_eigs", lambda: (r["leading_eigs"][0].p.real > 0.0, "Re p > 0 at N = 3")),
        ("evolve.eigenvector", lambda: steps("evolve.eigenvector", STEPS_EIGENVECTOR)),
        ("evolve.half-diffusivity", lambda: steps("evolve.half-diffusivity", STEPS_SHORT)),
        ("fit_growth", growth),
        ("evolve-random", random_start),
        ("energy_monitor", lambda: (all(e.ok for e in r["energy_monitor"]), "growth and energy bounds hold")),
        # eigenvectors lie in the shifted solenoidal subspace the operator preserves
        ("divergence_drift", lambda: (max(r["divergence_drift"]) <= 1e-10, "divergence drift <= 1e-10")),
    ])


# ---------------------------------------------------------------------------
# band


def warm_band(inp: Inputs, outdir: Path) -> None:
    fam = bloch.band_datum(inp.flow(), inp.band_center, inp.band_half_width, truncation=1, nodes_per_axis=2)
    fam.box_mass([1.0])
    cli.main(["field", "make-abc", "--abc=" + _vec(inp.abc), "--out", str(outdir)])


def batch_band(inp: Inputs, outdir: Path) -> Batch:
    b = Batch(outdir)
    flow = inp.flow()
    abc = _vec(inp.abc)
    b.run("parseval_check", bloch.parseval_check,
          bloch.ConstantBand(np.array(inp.parseval_amplitude), np.array(inp.parseval_center), 0.1),
          400.0, num=8, r_min=40.0)
    b.run("concentration_sweep", bloch.concentration_sweep, flow, inp.band_center, inp.band_half_width,
          SWEEP_EPS, delta=0.1, r_max=100.0, truncation=1, nodes_per_axis=4, num=48)
    b.cli("bloch-synth", ["bloch", "synth", "--abc=" + abc, "--j-star=" + _vec(inp.band_center),
                          "--half-width", repr(inp.band_half_width), "--truncation", "1",
                          "--nodes-per-axis", "4", "--grid-half", "3", "--grid-spacing", "0.5"])
    tail = b.run("calibrate_tail_model", glue.calibrate_tail_model,
                 bloch.ConstantBand(np.array(inp.tail_amplitude), np.array(inp.tail_center), 0.1), 40.0, 400.0)
    tail_args = ["--tail-coefficient", repr(tail.coefficient), "--tail-valid-from", repr(tail.valid_from)] if tail else []
    b.cli("glue-build", ["glue", "build", "--abc=" + abc, *tail_args])
    catalog = b.outdir / "glue-build" / "catalog.txt"
    b.cli("glue-check", ["glue", "check", "--catalog", str(catalog),
                         "--eps-samples", ",".join(map(str, EPS_SAMPLES))])
    b.run("build_datum", lambda: [glue.build_datum(glue.load_catalog(catalog), e) for e in EPS_SAMPLES])
    return b


def check_band(inp: Inputs, b: Batch) -> dict[str, list[str]]:
    r = b.results

    def parseval():
        rep = r["parseval_check"]
        return rep.final_rel_err <= 0.05 and rep.decreasing, (
            f"Parseval error {rep.final_rel_err:.2%} <= 5% at R = 400 and decreasing")

    def glue_check():
        rows = b.rows("glue-check", "checks.csv")
        return b.report("glue-check")["passed"] is True and all(x["passed"] == "1" for x in rows), (
            f"all {len(rows)} catalog checks pass")

    return judge(b, [
        ("parseval_check", parseval),
        ("concentration_sweep", lambda: (r["concentration_sweep"].spread <= 0.10, "radius spread <= 10%")),
        # band data are normalized to unit coefficient-space mass
        ("bloch-synth", lambda: (abs(b.report("bloch-synth")["total_mass"] - 1.0) <= 1e-9, "unit band mass")),
        ("glue-build", lambda: (b.report("glue-build")["blocks"] > 0, "catalog has blocks")),
        ("glue-check", glue_check),
        ("build_datum", lambda: (all(d.in_energy_window() for d in r["build_datum"]), "datum norms in [1/2, 2]")),
    ])


def oracles_band(inp: Inputs, outdir: Path) -> dict[str, list[str]]:
    def box_mass_vs_sampled():
        rng = np.random.default_rng(inp.probe_seed)
        nodes = rng.uniform(-0.5, 0.5, size=(3, 3))
        fam = bloch.BlochFamily(nodes, rng.uniform(0.2, 0.6, size=3),
                                [df.random_complex_field(1, rng=rng) for _ in range(3)])
        exact = fam.box_mass(3.0)[0]
        sampled = bloch.sampled_box_mass(bloch.synthesize(fam, 3.0, 0.1))
        rel = abs(sampled - exact) / exact
        return rel <= 1e-3, f"box mass vs trapezoid samples {rel:.2e} <= 1e-3"

    def control_fails():
        band = bloch.ConstantBand(np.array(inp.tail_amplitude), np.array(inp.tail_center), 0.1)
        tail = glue.calibrate_tail_model(band, 40.0, 400.0)
        build, check = outdir / "control-build", outdir / "control-check"
        codes = [
            cli.main(["glue", "build", "--abc=" + _vec(inp.abc), "--ufrak", "1",
                      "--tail-coefficient", repr(tail.coefficient), "--out", str(build)]),
            cli.main(["glue", "check", "--catalog", str(build / "catalog.txt"), "--out", str(check)]),
        ]
        failures = json.loads((check / "manifest.json").read_text())["report"]["failures"]
        return codes == [0, 0] and len(failures) >= 1, f"ufrak = 1 control fails {len(failures)} check(s)"

    return run_oracles([("oracle.box-mass-vs-sampled", box_mass_vs_sampled),
                        ("oracle.ufrak-control", control_fails)])


WORKLOADS = {
    "spectrum": (warm_spectrum, batch_spectrum, check_spectrum, oracles_spectrum),
    "timestep": (warm_timestep, batch_timestep, check_timestep, lambda inp, outdir: {}),
    "band": (warm_band, batch_band, check_band, oracles_band),
}


def csv_mismatches(first: Batch, later: Batch) -> dict[str, list[str]]:
    """CLI steps of ``later`` whose CSV files differ from those of ``first``."""
    problems: dict[str, list[str]] = {}
    for step in later.cli_steps:
        if step in later.errors or step in first.errors:
            continue
        a, b = first.outdir / step, later.outdir / step
        names = sorted(p.name for p in a.glob("*.csv"))
        if names != sorted(p.name for p in b.glob("*.csv")):
            problems[step] = ["CSV file sets differ between repeats"]
            continue
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                problems.setdefault(step, []).append(f"{name} not bit-identical across repeats")
    return problems
