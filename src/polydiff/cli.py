"""Command-line front end.

Exit codes are a stable contract: 0 success (or Valid verdict), 1 for
domain-negative outcomes (Invalid/Inconclusive verdicts, points outside the
state space, degree overruns, bad state-price densities, a moment or price
that is not a finite number, a ``--verify`` Monte Carlo check of more than
``_MC_PATH_STEPS`` path-steps, a swaption simulation past the caps of
``pricing.swaption_price_mc``, a ``basis-dump --degree``, ``pricing.degree``
or ``moments --poly`` whose basis has more than ``_BASIS_SIZE`` monomials, a
``simulate`` of more than ``_SIM_PATH_STEPS`` path-steps or ``_SIM_ROWS``
stored states),
2 for unreadable or malformed input
(non-finite points, horizons, steps or thresholds, non-finite instrument
numbers, reported as ``instrument.<field>``, negative horizons, degrees,
``--seed`` or ``--mc-paths``, non-positive simulation steps, horizons,
``--samples``, ``--paths`` or ``--store-stride``).  Every failure is
reported on one ``error:`` line.  All numeric JSON output is emitted at 17
significant digits so values round-trip exactly; JSON has no inf or nan.

``moments --degree`` bounds the degree of the payoff p; the closed form
runs on Pol_{deg p}, the leading block of the generator, whatever the bound.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import warnings

import click
import numpy as np

from .basis import monomial_basis
from .conditions import (
    check_necessary,
    check_sufficient,
    classify_boundary,
    uniqueness_report,
    validate_params,
)
from .generator import check_point, conditional_moment, generator_matrix, moment_by_ode
from .polynomial import DivisionFailure, Polynomial
from .pricing import (
    LognormalIndexPricer,
    PricingModel,
    SimplexIndexModel,
    TabulatedIndexPricer,
    _cheb_degree,
    bond_price,
    fit_index_payoff,
    swaption_price_mc,
    variance_swap_rate,
)
from .simulate import boundary_hit_stats, mc_moment, simulate_paths
from .specfile import SpecError, _validate_against, load_instrument, load_model_spec
from .statespace import SimplexParams

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

_MC_PATH_STEPS = 10**6  # the most paths x steps a --verify Monte Carlo check runs: seconds in 4-d
_BASIS_SIZE = 5000  # the most monomials a command builds a basis on: a dense generator of 200 MB
_SIM_PATH_STEPS = 10**9  # the most paths x steps simulate runs: about a minute and a half in 1-d
_SIM_ROWS = 2 * 10**7  # the most path states simulate stores: about 1 GB of CSV in 1-d

# every library error not caused by malformed input is a domain-negative
# outcome: points outside the state space, degree overruns, generators that
# do not descend to the manifold, bad state-price densities, overflow
_DOMAIN_ERRORS = (ValueError, ArithmeticError, RuntimeError, DivisionFailure)


def _format_json(obj, indent=0, where="report") -> str:
    """JSON with floats at 17 significant digits (round-trip exact).  JSON has
    no token for inf or nan, so a non-finite float raises FloatingPointError
    (exit 1) naming its field."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  {json.dumps(k)}: {_format_json(v, indent + 1, f"{where}.{k}")}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_format_json(v, indent + 1, f'{where}[{i}]')}"
                           for i, v in enumerate(obj))
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise FloatingPointError(f"{where}: result {float(obj)} is not a finite number")
        return format(float(obj), ".17g")
    return json.dumps(obj)


def _emit(ctx, text: str):
    out = ctx.obj.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _as_point(values, dim: int, label: str) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.shape != (dim,):
        raise SpecError(f"{label}: expected {dim} coordinates, got {len(x)}")
    if not np.all(np.isfinite(x)):
        raise SpecError(f"{label}: coordinates must be finite, got {x.tolist()}")
    return x


def _parse_point(text: str, dim: int) -> np.ndarray:
    try:
        x = [float(v) for v in text.split(",")]
    except ValueError:
        raise SpecError(f"--x: expected comma-separated floats, got {text!r}")
    return _as_point(x, dim, "--x")


def _check_nonnegative(name: str, value) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise SpecError(f"{name}: expected a finite value >= 0, got {value}")


def _check_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise SpecError(f"{name}: expected a finite value > 0, got {value}")


def _parse_poly(text: str, dim: int) -> Polynomial:
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError(f"--poly: {exc}")
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"--poly: {exc.msg} at column {exc.colno}")
    try:
        _validate_against(doc, "modelspec.schema.json", "polynomial")
        p = Polynomial.from_json_dict(doc)
    except ValueError as exc:  # the schema check raises SpecError, a ValueError
        raise SpecError(f"--poly: {exc}")
    if p.dim != dim:
        raise SpecError(f"--poly: polynomial dimension {p.dim} does not match model dimension {dim}")
    return p


def _check_basis_size(space, degree: int, name: str) -> None:
    """Refuse a degree whose basis would pass ``_BASIS_SIZE`` monomials, before it is built."""
    n = math.comb(space.basis_variables + degree, degree)
    if n > _BASIS_SIZE:
        raise ValueError(f"{name}: degree {degree} gives a basis of {n} monomials, above the cap of "
                         f"{_BASIS_SIZE}; use a lower degree")


def _check_simulation_size(paths: int, steps: float, stride: int) -> None:
    """Refuse a simulation of more than ``_SIM_PATH_STEPS`` path-steps or
    ``_SIM_ROWS`` stored states, before anything is allocated; ``steps`` is
    t-end / dt, which may be inf."""
    n = round(steps) if math.isfinite(steps) else math.inf
    if paths * n > _SIM_PATH_STEPS:
        raise ValueError(f"--paths: {paths} paths of {n} steps exceed the simulation cap of {_SIM_PATH_STEPS} "
                         "path-steps; use fewer paths or a larger --dt")
    rows = -(-n // stride) + 1  # every stride-th step from 0, and the last
    if paths * rows > _SIM_ROWS:
        raise ValueError(f"--paths: {paths} paths of {rows} stored states exceed the cap of {_SIM_ROWS} "
                         "stored states; use fewer paths or a larger --store-stride")


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _at_least(low: int):
    """Click callback: an integer option below ``low`` is malformed input (exit 2, one ``error:`` line)."""
    def check(ctx, param, value):
        if value < low:
            _fail(f"{param.opts[0]}: expected an integer >= {low}, got {value}", EXIT_INPUT)
        return value
    return check


def _exit_codes(command):
    """Map malformed input to exit 2 and library errors to exit 1, each
    reported on one ``error:`` line."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except SpecError as exc:
            _fail(str(exc), EXIT_INPUT)
        except _DOMAIN_ERRORS as exc:
            _fail(str(exc), EXIT_DOMAIN)
    return run


@click.group()
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write the primary output to this file instead of stdout.")
@click.option("--samples", type=int, default=1000, show_default=True, callback=_at_least(1),
              help="Sample budget for sampled checks.")
@click.option("--seed", type=int, default=0, show_default=True, callback=_at_least(0),
              help="RNG seed for simulation.")
@click.option("--verify", is_flag=True, help="Cross-check moments against a generator-free series oracle.")
@click.option("--quiet", is_flag=True, help="Suppress warnings and informational messages.")
@click.pass_context
def main(ctx, out, samples, seed, verify, quiet):
    """Polynomial diffusion models: validation, moments, simulation, pricing."""
    ctx.ensure_object(dict)
    ctx.obj.update(out=out, samples=samples, seed=seed, verify=verify, quiet=quiet)
    if quiet:
        warnings.simplefilter("ignore")


@main.command()
@click.argument("spec_path", type=click.Path(exists=False))
@click.pass_context
@_exit_codes
def validate(ctx, spec_path):
    """Check model parameters, invariance conditions, and uniqueness."""
    samples = ctx.obj["samples"]
    spec = load_model_spec(spec_path)
    pr = None if spec.params is None else validate_params(spec.statespace, spec.params, samples=samples)
    nec = check_necessary(spec.model, spec.statespace, samples=samples)
    suf = check_sufficient(spec.model, spec.statespace, samples=samples)
    verdict = pr.verdict if pr is not None else {"pass": "Valid", "fail": "Invalid"}.get(suf.verdict, "Inconclusive")
    report = {"family": spec.statespace.family, "verdict": verdict,
              "parameter_conditions": None if pr is None else pr.as_json_dict(),
              "necessary": nec.as_json_dict(), "sufficient": suf.as_json_dict(),
              "uniqueness": uniqueness_report(spec.model, spec.statespace).as_json_dict()}
    _emit(ctx, _format_json(report))
    sys.exit(EXIT_OK if verdict == "Valid" else EXIT_DOMAIN)


@main.command()
@click.argument("spec_path", type=click.Path(exists=False))
@click.option("--degree", type=int, required=True, callback=_at_least(0),
              help="Bound on the payoff degree; the closed form runs on Pol_{deg p}, the leading block.")
@click.option("--x", "x_text", required=True, help="Conditioning point, comma-separated.")
@click.option("--tau", type=float, required=True, help="Time horizon (>= 0).")
@click.option("--poly", "poly_text", required=True,
              help="Moment polynomial as JSON, or @file.json.")
@click.option("--mc-paths", type=int, default=0, callback=_at_least(0),
              help="With --verify, also Monte Carlo cross-check using this many paths.")
@click.option("--dt", type=float, default=1e-3, show_default=True,
              help="Step size for the Monte Carlo cross-check.")
@click.pass_context
@_exit_codes
def moments(ctx, spec_path, degree, x_text, tau, poly_text, mc_paths, dt):
    """Closed-form conditional moment E[p(X_tau) | X_0 = x]."""
    spec = load_model_spec(spec_path)
    x = _parse_point(x_text, spec.statespace.dim)
    p = _parse_poly(poly_text, spec.statespace.dim)
    _check_nonnegative("--tau", tau)
    if (q := spec.statespace.reduce(p)).degree <= degree:  # above it the library raises DegreeTooHigh
        _check_basis_size(spec.statespace, max(q.degree, 0), "--poly")
    if ctx.obj["verify"] and mc_paths > 0:
        _check_positive("--dt", dt)
        steps = max(tau, dt) / dt
        if mc_paths * steps > _MC_PATH_STEPS:
            raise ValueError(f"--mc-paths: {mc_paths} paths of {steps:.6g} steps exceed the Monte Carlo cap of "
                             f"{_MC_PATH_STEPS} path-steps; use fewer paths or a larger --dt")
    value = conditional_moment(spec.model, spec.statespace, degree, p, x, tau)
    report = {"value": value, "degree": degree, "tau": tau,
              "x": list(x), "polynomial": p.to_json_dict()}
    if ctx.obj["verify"]:
        ode = moment_by_ode(spec.model, spec.statespace, degree, p, x, tau)
        report["verify"] = {"ode_value": ode, "abs_diff": abs(value - ode)}
        if mc_paths > 0:
            paths = simulate_paths(spec.model, spec.statespace, x, max(tau, dt), dt,
                                   mc_paths, ctx.obj["seed"],
                                   store_stride=max(round(steps), 1))
            est, se = mc_moment(paths, p, tau)
            report["verify"].update(mc_value=est, mc_standard_error=se, mc_paths=mc_paths)
    _emit(ctx, _format_json(report))


@main.command()
@click.argument("spec_path", type=click.Path(exists=False))
@click.option("--x0", "x0_text", required=True, help="Starting point, comma-separated.")
@click.option("--paths", type=int, default=1000, show_default=True, callback=_at_least(1))
@click.option("--dt", type=float, default=1e-3, show_default=True)
@click.option("--t-end", "--T", "t_end", type=float, required=True, help="Horizon T.")
@click.option("--store-stride", type=int, default=1, show_default=True, callback=_at_least(1),
              help="Keep every k-th step (the endpoint is always kept).")
@click.option("--threshold", type=float, default=1e-6, show_default=True,
              help="Boundary-hit threshold for the summary statistics.")
@click.option("--gzip", "use_gzip", is_flag=True, help="Write the path CSV gzip-compressed.")
@click.pass_context
@_exit_codes
def simulate(ctx, spec_path, x0_text, paths, dt, t_end, store_stride, threshold, use_gzip):
    """Simulate paths; write CSV to --out and a JSON summary to stdout."""
    out = ctx.obj.get("out")
    if not out:
        raise SpecError("simulate requires --out for the path CSV")
    spec = load_model_spec(spec_path)
    x0 = _parse_point(x0_text, spec.statespace.dim)
    _check_positive("--dt", dt)
    _check_positive("--t-end", t_end)
    if not math.isfinite(threshold):
        raise SpecError(f"--threshold: expected a finite value, got {threshold}")
    _check_simulation_size(paths, t_end / dt, store_stride)
    ps = simulate_paths(spec.model, spec.statespace, x0, t_end, dt, paths,
                        ctx.obj["seed"], store_stride=store_stride)
    if use_gzip:
        # fixed mtime keeps the compressed bytes reproducible across runs
        with open(out, "wb") as fh:
            fh.write(gzip.compress(ps.csv_text().encode(), mtime=0))
    else:
        with open(out, "w") as fh:
            fh.write(ps.csv_text())
    stats = []
    for k, p in enumerate(spec.statespace.inequalities):
        st = boundary_hit_stats(ps, spec.statespace, p, threshold)
        stats.append({"inequality": k, **st})
    summary = {"n_paths": paths, "n_steps": ps.n_steps, "dt": dt,
               "seed": ctx.obj["seed"], "csv_path": out, "boundary_stats": stats}
    click.echo(_format_json(summary))


@main.command()
@click.argument("spec_path", type=click.Path(exists=False))
@click.option("--margin", type=float, default=1e-9, show_default=True,
              help="Strictness margin for sampled sign checks.")
@click.pass_context
@_exit_codes
def boundary(ctx, spec_path, margin):
    """Classify boundary attainment for every inequality of the state space."""
    samples = ctx.obj["samples"]
    spec = load_model_spec(spec_path)
    entries = [{"index": k, **classify_boundary(spec.model, spec.statespace, p,
                                                samples=samples, margin=margin).as_json_dict()}
               for k, p in enumerate(spec.statespace.inequalities)]
    _emit(ctx, _format_json({"inequalities": entries}))


def _build_index_pricer(doc: dict):
    if doc["type"] == "lognormal":
        return LognormalIndexPricer(spot=doc["spot"], rate=doc["rate"], vol=doc["vol"])
    return TabulatedIndexPricer(doc["strikes"], doc["prices"])


@main.command()
@click.argument("spec_path", type=click.Path(exists=False))
@click.argument("instrument_path", type=click.Path(exists=False))
@click.pass_context
@_exit_codes
def price(ctx, spec_path, instrument_path):
    """Price an instrument file against a model with a pricing block."""
    spec = load_model_spec(spec_path)
    instr = load_instrument(instrument_path)
    if spec.pricing is None:
        raise SpecError("model spec has no pricing block")
    x = _as_point(instr["x"], spec.statespace.dim, "instrument.x")
    _check_basis_size(spec.statespace, spec.pricing.degree, "pricing.degree")
    kind = instr["kind"]
    if kind == "equity_option":
        if not isinstance(spec.params, SimplexParams):
            raise SpecError("equity_option requires a simplex model with family parameters")
        sim = SimplexIndexModel(params=spec.params, T_star=instr["horizon"],
                                degree=spec.pricing.degree,
                                pricer=_build_index_pricer(instr["pricer"]))
        # only the fields the file gives: the pricing functions own the defaults
        fit = {k: instr[k] for k in ("grid_size", "cheb_degree") if k in instr}
        payoff, residual = fit_index_payoff(sim, sim.pricer, instr["constituent"], instr["T"], instr["K"], **fit)
        H = sim.basis.evaluate(check_point(sim.statespace, x))
        report = {"kind": kind,
                  "price": sim.gm.expectation(H, instr["T"], sim.basis.coordinates(payoff)),
                  "diagnostics": {"fit_residual": residual,
                                  "cheb_degree": _cheb_degree(sim, fit.get("cheb_degree"))}}
    else:
        pm = PricingModel(spec.model, spec.statespace, degree=spec.pricing.degree,
                          p=spec.pricing.p, alpha=spec.pricing.alpha_rate)
        denom = float(pm.basis.evaluate(x) @ pm.pvec)
        if kind == "bond":
            report = {"kind": kind, "price": bond_price(pm, x, instr["t"], instr["T"])}
        elif kind == "vswap":
            report = {"kind": kind, "price": variance_swap_rate(pm, x, instr["t"], instr["T"])}
        else:
            value, se = swaption_price_mc(pm, instr["coupons"], instr["expiry"], x, seed=ctx.obj["seed"],
                                          **{k: instr[k] for k in ("n_paths", "dt") if k in instr})
            report = {"kind": kind, "price": value, "standard_error": se}
        report["diagnostics"] = {"denominator": denom, "positivity": pm.positivity}
    _emit(ctx, _format_json(report))


@main.command("basis-dump")
@click.argument("spec_path", type=click.Path(exists=False))
@click.option("--degree", type=int, required=True, callback=_at_least(0), help="Basis degree bound.")
@click.option("--generator", "with_generator", is_flag=True,
              help="Dump the generator matrix CSV instead of the monomial list.")
@click.pass_context
@_exit_codes
def basis_dump(ctx, spec_path, degree, with_generator):
    """Dump the monomial basis (or the generator matrix on it) as CSV."""
    spec = load_model_spec(spec_path)
    _check_basis_size(spec.statespace, degree, "--degree")
    basis = monomial_basis(spec.statespace, degree)
    if with_generator:
        text = generator_matrix(spec.model, basis).csv_text()
    else:
        text = basis.csv_text()
    _emit(ctx, text.rstrip("\n"))


if __name__ == "__main__":
    main()
