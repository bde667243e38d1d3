"""Command-line entry point: batch runs with persisted, reproducible artifacts.

Every subcommand writes its numeric outputs as CSV (17 significant digits,
'.' decimal, '\n' line ends, so identical configs give bit-identical files)
plus a ``manifest.json`` echoing the resolved configuration, the toolkit
version, the seed and the wall time.  Exit codes: 0 on success, 2 for
configuration problems, 3 for numerical failures (the manifest with the
diagnostic is still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, alpha, bloch
from . import evolve as ev
from . import fields as df
from . import glue, modal
from .errors import ConfigError, NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

OUTDIR_ENV = "DYNAMO_OUTDIR"
_DEFAULT_OUTDIR = "dynamo-out"


# ---------------------------------------------------------------------------
# formatting and small parsers


def _fmt(v) -> str:
    if type(v) is float:  # the common case first: callers pass arrays as Python scalars
        return format(v, ".17g")
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _floats(text: str, count: int | None = None) -> np.ndarray:
    try:
        vals = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse {text!r} as comma-separated numbers") from exc
    if count is not None and len(vals) != count:
        raise ConfigError(f"expected {count} comma-separated numbers, got {text!r}")
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"expected finite numbers, got {text!r}")
    return vals


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# shared construction helpers


def _load_flow(args) -> df.SpectralField:
    """Flow (or stream) field from --abc amplitudes or a snapshot file."""
    if args.flow_file and args.abc:
        raise ConfigError("give either --abc or --flow-file, not both")
    if args.flow_file:
        f = df.load_field(Path(args.flow_file))
    elif args.abc:
        a, b, c = _floats(args.abc, 3)
        f = df.make_abc(df.AbcParams(a, b, c))
    else:
        raise ConfigError("a flow is required: pass --abc a,b,c or --flow-file path")
    if not (args.delta0 > 0.0 and np.isfinite(args.delta0)):
        raise ConfigError(f"amplitude factor must be positive and finite, got {args.delta0}")
    if args.delta0 != 1.0:
        f = df.SpectralField(f.coeffs * args.delta0, kind=f.kind, scale=f.scale)
    return f


def _operator_spec(args, flow: df.SpectralField) -> modal.ModalOperatorSpec:
    n = args.truncation if args.truncation is not None else flow.truncation + 1
    return modal.ModalOperatorSpec(flow, _floats(args.j, 3), args.eps, n)


def _band_family(args, flow: df.SpectralField) -> bloch.BlochFamily:
    return bloch.band_datum(
        flow,
        _floats(args.j_star, 3),
        args.half_width,
        eps=args.eps,
        zeta=args.zeta,
        truncation=args.truncation if args.truncation is not None else max(2, flow.truncation),
        nodes_per_axis=args.nodes_per_axis,
    )


# ---------------------------------------------------------------------------
# subcommand bodies: each returns a JSON-safe report dict


def _cmd_field_make_abc(args, outdir: Path) -> dict:
    if not args.abc:
        raise ConfigError("field make-abc requires --abc a,b,c")
    flow = _load_flow(args)
    df.save_field(flow, outdir / "flow.field")
    kv = df.wavevectors(flow.truncation).reshape(-1, 3).astype(int)
    cf = flow.coeffs.reshape(-1, 3)
    rows = [
        (k[0], k[1], k[2], c[0].real, c[0].imag, c[1].real, c[1].imag,
         c[2].real, c[2].imag)
        for k, c in zip(kv, cf) if np.any(c != 0.0)
    ]
    _write_csv(
        outdir / "coeffs.csv",
        ["k1", "k2", "k3", "c1_re", "c1_im", "c2_re", "c2_im", "c3_re", "c3_im"],
        rows,
    )
    return {"modes": len(rows), "l2": flow.l2(), "field_file": "flow.field"}


def _cmd_alpha_matrix(args, outdir: Path) -> dict:
    flow = _load_flow(args)
    am = alpha.alpha_matrix(
        flow, _floats(args.j, 3), truncation=args.truncation, tol=args.tol
    )
    _write_csv(
        outdir / "alpha_matrix.csv",
        ["row", "col", "re", "im"],
        [
            (i, j, am.matrix[i, j].real, am.matrix[i, j].imag)
            for i in range(3) for j in range(3)
        ],
    )
    _write_csv(
        outdir / "eigenvalues.csv",
        ["index", "re", "im"],
        [(i, w.real, w.imag) for i, w in enumerate(am.eigenvalues)],
    )
    return {
        "j_direction": am.j_direction,
        "eigenvalues": [complex(w) for w in am.eigenvalues],
        "max_residual": am.max_residual,
    }


def _cmd_alpha_scan(args, outdir: Path) -> dict:
    flow = _load_flow(args)
    samples = {
        "icosphere": alpha.icosphere_directions,
        "axes": alpha.axis_directions,
        "grid": alpha.grid_directions,
    }
    report = alpha.instability_scan(
        flow,
        directions=samples[args.directions](),
        threshold=args.threshold,
        truncation=args.truncation,
        tol=args.tol,
    )
    _write_csv(
        outdir / "scan.csv",
        ["d1", "d2", "d3", "mu1_re", "mu1_im", "mu2_re", "mu2_im",
         "mu3_re", "mu3_im", "margin", "unstable"],
        [
            (r.direction[0], r.direction[1], r.direction[2],
             r.eigenvalues[0].real, r.eigenvalues[0].imag,
             r.eigenvalues[1].real, r.eigenvalues[1].imag,
             r.eigenvalues[2].real, r.eigenvalues[2].imag,
             r.margin, r.unstable)
            for r in report.rows
        ],
    )
    return {
        "directions": len(report.rows),
        "best_direction": report.best_direction,
        "best_eigenvalue": report.best_eigenvalue,
        "best_margin": report.best_margin,
        "certified": report.certified,
    }


def _cmd_spectrum_eigs(args, outdir: Path) -> dict:
    flow = _load_flow(args)
    spec = _operator_spec(args, flow)
    pairs = modal.leading_eigs(spec, count=args.count, seed=args.seed)
    _write_csv(
        outdir / "eigs.csv",
        ["index", "p_re", "p_im", "residual"],
        [(i, p.p.real, p.p.imag, p.residual) for i, p in enumerate(pairs)],
    )
    return {
        "count": len(pairs),
        "leading": complex(pairs[0].p),
        "leading_residual": pairs[0].residual,
    }


def _cmd_spectrum_kato(args, outdir: Path) -> dict:
    flow = _load_flow(args)
    report = modal.first_order_check(
        flow,
        _floats(args.direction, 3),
        _floats(args.jmags),
        truncation=args.truncation if args.truncation is not None else max(2, flow.truncation),
        tol=args.tol,
    )
    rows = []
    for i, m in enumerate(report.magnitudes):
        for branch in range(3):
            rows.append(
                (m, branch,
                 report.eigenvalues[i, branch].real,
                 report.eigenvalues[i, branch].imag,
                 report.predictions[branch].real,
                 report.predictions[branch].imag,
                 report.remainders[i, branch])
            )
    _write_csv(
        outdir / "kato.csv",
        ["jmag", "branch", "p_re", "p_im", "mu_re", "mu_im", "remainder"],
        rows,
    )
    return {
        "slope": report.slope,
        "per_branch_slopes": report.per_branch_slopes,
        "predictions": [complex(w) for w in report.predictions],
    }


def _cmd_evolve(args, outdir: Path) -> dict:
    flow = _load_flow(args)
    spec = _operator_spec(args, flow)
    if args.init == "eig":
        h0 = modal.leading_eigs(spec, count=1)[0].field
    else:
        h0 = df.random_complex_field(spec.truncation, np.random.default_rng(args.seed))
    run = ev.evolve(
        spec, h0, args.t_end,
        dt=args.dt, sample_every=args.sample_every, project=args.project,
    )
    tr = run.trace
    _write_csv(
        outdir / "trace.csv",
        ["t", "norm", "slack_growth_bound", "slack_energy_estimate", "div_drift"],
        zip(tr.t.tolist(), tr.norm.tolist(), tr.slack_growth_bound.tolist(),
            tr.slack_energy_estimate.tolist(), tr.div_drift.tolist()),
    )
    fit = ev.fit_growth(run)
    energy = ev.energy_monitor(run)
    return {
        "gamma": fit.gamma,
        "fit_window": fit.window,
        "fit_r2": fit.r2,
        "dt": run.dt,
        "samples": len(tr.t),
        "min_slack_growth": energy.min_slack_growth,
        "min_slack_energy": energy.min_slack_energy,
        "bounds_ok": energy.ok,
        "div_drift": ev.divergence_drift(run),
    }


def _cmd_bloch_synth(args, outdir: Path) -> dict:
    bloch.volume_axis(args.grid_half, args.grid_spacing)  # reject the grid before the eigensolves
    flow = _load_flow(args)
    family = _band_family(args, flow)
    _write_csv(
        outdir / "family.csv",
        ["j1", "j2", "j3", "weight", "exponent_re", "exponent_im"],
        [
            (j[0], j[1], j[2], w, p.real, p.imag)
            for j, w, p in zip(family.j_nodes, family.weights, family.exponents)
        ],
    )
    vol = bloch.synthesize(family, args.grid_half, args.grid_spacing)
    bloch.save_volume(vol, outdir / "volume.vol")
    return {
        "nodes": len(family),
        "total_mass": family.total_mass(),
        "grid_points": int(vol.values.shape[0]) ** 3,
        "volume_file": "volume.vol",
    }


def _cmd_bloch_parseval(args, outdir: Path) -> dict:
    flow = _load_flow(args)
    family = _band_family(args, flow)
    report = bloch.parseval_check(family, args.r_max, num=args.num)
    _write_csv(
        outdir / "parseval.csv",
        ["radius", "box_mass", "total_mass", "rel_err"],
        [(r, l, report.rhs, e)
         for r, l, e in zip(report.radii, report.lhs, report.rel_err)],
    )
    return {
        "final_rel_err": report.final_rel_err,
        "decreasing": report.decreasing,
        "total_mass": report.rhs,
    }


def _cmd_glue_build(args, outdir: Path) -> dict:
    stream = _load_flow(args)
    tail = glue.TailModel(args.tail_coefficient, args.tail_valid_from)
    catalog = glue.plan_catalog(
        stream, tail,
        zeta=args.zeta, ufrak=args.ufrak,
        n_max=args.n_max, ell_max=args.ell_max, margin=args.margin,
    )
    glue.save_catalog(catalog, outdir / "catalog.txt")
    _write_csv(
        outdir / "blocks.csv",
        ["n", "ell", "q1", "q2", "q3", "radius", "plateau", "outer"],
        [(b.n, b.ell, b.quanta[0], b.quanta[1], b.quanta[2],
          b.radius, b.plateau, b.outer) for b in catalog.blocks],
    )
    return {"blocks": len(catalog.blocks), "catalog_file": "catalog.txt"}


def _cmd_glue_check(args, outdir: Path) -> dict:
    catalog = glue.load_catalog(Path(args.catalog))
    eps_samples = tuple(_floats(args.eps_samples)) if args.eps_samples else ()
    report = glue.check_catalog(catalog, eps_samples=eps_samples)
    _write_csv(
        outdir / "checks.csv",
        ["name", "kind", "measured", "bound", "margin", "passed"],
        [(r.name, r.kind, r.measured, r.bound, r.margin, r.passed)
         for r in report.rows],
    )
    return {
        "passed": report.passed,
        "rows": len(report.rows),
        "stream_constant": report.stream_constant,
        "failures": [r.name for r in report.failures()],
    }


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with flag defaults; flags override")
    p.add_argument("--out", help=f"output directory (else ${OUTDIR_ENV}, else ./{_DEFAULT_OUTDIR})")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized probes")


def _add_flow(p: argparse.ArgumentParser) -> None:
    p.add_argument("--abc", help="flow amplitudes a,b,c")
    p.add_argument("--flow-file", help="spectral field snapshot to load instead")
    p.add_argument("--delta0", type=float, default=1.0, help="amplitude factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynamo",
        description="spectral toolkit for alpha-effect instability and dynamo growth",
    )
    parser.add_argument("--version", action="version", version=f"dynamo {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)

    def sub(owner, name, func, flow=True, truncation=True, tol=False):
        # only the options the subcommand reads, so a stray one exits 2
        p = owner.add_parser(name)
        _add_common(p)
        if flow:
            _add_flow(p)
        if truncation:
            p.add_argument("--truncation", type=int, default=None)
        if tol:
            p.add_argument("--tol", type=float, default=1e-12, help="cell-problem tolerance")
        p.set_defaults(func=func)
        return p

    field = groups.add_parser("field").add_subparsers(dest="action", required=True)
    sub(field, "make-abc", _cmd_field_make_abc, truncation=False)

    a = groups.add_parser("alpha").add_subparsers(dest="action", required=True)
    p = sub(a, "matrix", _cmd_alpha_matrix, tol=True)
    p.add_argument("--j", required=True, help="direction jx,jy,jz")
    p = sub(a, "scan", _cmd_alpha_scan, tol=True)
    p.add_argument("--directions", default="icosphere",
                   choices=("icosphere", "axes", "grid"))
    p.add_argument("--threshold", type=float, default=1e-8)

    s = groups.add_parser("spectrum").add_subparsers(dest="action", required=True)
    p = sub(s, "eigs", _cmd_spectrum_eigs)
    p.add_argument("--j", required=True, help="wavevector jx,jy,jz")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--count", type=int, default=6)
    p = sub(s, "kato", _cmd_spectrum_kato, tol=True)
    p.add_argument("--jmags", required=True, help="decreasing magnitudes m1,m2,...")
    p.add_argument("--direction", default="0,0,1")

    p = sub(groups, "evolve", _cmd_evolve)
    p.add_argument("--j", required=True)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--sample-every", type=int, default=1)
    p.add_argument("--init", default="eig", choices=("eig", "random"))
    p.add_argument("--project", action="store_true")

    b = groups.add_parser("bloch").add_subparsers(dest="action", required=True)

    def add_band(p):
        p.add_argument("--j-star", required=True, help="band center jx,jy,jz")
        p.add_argument("--half-width", type=float, required=True)
        p.add_argument("--eps", type=float, default=1.0)
        p.add_argument("--zeta", type=float, default=0.9)
        p.add_argument("--nodes-per-axis", type=int, default=5)

    p = sub(b, "synth", _cmd_bloch_synth)
    add_band(p)
    p.add_argument("--grid-half", type=float, required=True)
    p.add_argument("--grid-spacing", type=float, required=True)
    p = sub(b, "parseval", _cmd_bloch_parseval)
    add_band(p)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--num", type=int, default=16)

    g = groups.add_parser("glue").add_subparsers(dest="action", required=True)
    p = sub(g, "build", _cmd_glue_build, truncation=False)
    p.add_argument("--zeta", type=float, default=0.9)
    p.add_argument("--ufrak", type=float, default=10.0)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--ell-max", type=int, default=3)
    p.add_argument("--margin", type=float, default=0.25)
    p.add_argument("--tail-coefficient", type=float, required=True)
    p.add_argument("--tail-valid-from", type=float, default=1.0)
    p = sub(g, "check", _cmd_glue_check, flow=False, truncation=False)
    p.add_argument("--catalog", required=True, help="catalog snapshot path")
    p.add_argument("--eps-samples", default="", help="diffusivities e1,e2,...")

    return parser


def _all_dests(parser: argparse.ArgumentParser) -> set[str]:
    dests = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                dests |= _all_dests(child)
        elif action.dest != "help":
            dests.add(action.dest)
    return dests


def _config_value(action: argparse.Action, value):
    """A config value as its flag would take it, through the flag's type and choices.

    A string goes through the type as on the command line, a float flag
    also takes a JSON number and an int flag a JSON integer, a switch takes
    a JSON boolean, and null stands only for a built-in default of None.
    """
    if value is None:
        ok = action.default is None
    elif isinstance(action, argparse._StoreTrueAction):
        ok = isinstance(value, bool)
    else:
        kinds = {float: (str, int, float), int: (str, int)}.get(action.type, (str,))
        ok = isinstance(value, kinds) and not isinstance(value, bool)
        try:
            value = (action.type or str)(value) if ok else value
        except (ValueError, OverflowError):
            ok = False
    if not ok or (action.choices is not None and value not in action.choices):
        raise ConfigError(f"config key {action.dest!r}: {value!r} is not a value its flag accepts")
    return value


def _seed_defaults(parser: argparse.ArgumentParser, values: dict) -> None:
    # set_defaults rewrites matching action defaults in place, which keeps
    # the precedence explicit flag > config value > built-in default across
    # interpreter versions (subparsers re-derive defaults from the actions)
    own = {a.dest: _config_value(a, values[a.dest])
           for a in parser._actions if a.dest in values}
    if own:
        parser.set_defaults(**own)
        for a in parser._actions:
            if a.dest in own and a.required:
                a.required = False
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                _seed_defaults(child, values)


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Load --config JSON as parser defaults so explicit flags still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    try:
        raw = json.loads(Path(known.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {known.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object of flag defaults")
    cleaned = {str(k).replace("-", "_"): v for k, v in raw.items()}
    unknown = sorted(set(cleaned) - _all_dests(parser))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if os.environ.get(OUTDIR_ENV):
        cleaned.pop("out", None)  # the environment's directory outranks the config's
    _seed_defaults(parser, cleaned)


def _resolve_outdir(args) -> Path:
    if args.out:
        out = Path(args.out)
    elif os.environ.get(OUTDIR_ENV):
        out = Path(os.environ[OUTDIR_ENV])
    else:
        out = Path(_DEFAULT_OUTDIR)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(outdir: Path, subcommand: str, config: dict, seed: int,
                    t0: float, status: str, error: str | None,
                    report: dict | None) -> None:
    manifest = {
        "subcommand": subcommand,
        "toolkit_version": __version__,
        "config": config,
        "seed": seed,
        "wall_time_s": time.perf_counter() - t0,
        "status": status,
        "error": error,
        "report": report,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=_jsonable) + "\n",
        encoding="utf-8",
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {args.seed!r}")
        outdir = _resolve_outdir(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    subcommand = args.group if not hasattr(args, "action") else f"{args.group} {args.action}"
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "group", "action", "config")
    }
    t0 = time.perf_counter()
    try:
        report = args.func(args, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        _write_manifest(outdir, subcommand, config, args.seed, t0,
                        "numerical-failure", f"{type(exc).__name__}: {exc}", None)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(outdir, subcommand, config, args.seed, t0, "ok", None, report)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
