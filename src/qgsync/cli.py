"""Batch front-end: validation and experiment subcommands with deterministic output.

Every subcommand reads one configuration, runs, and writes JSON reports and
CSV time series under the output directory.  Outputs are byte-identical for
identical inputs: fixed key order, fixed float formatting (17 significant
digits), no timestamps, seeds processed in sorted order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis
from .config import RunConfig, config_from_flat, parse_config
from .dynamics import DivergenceError, evolve, start_state, untransform
from .fields import (
    Basis,
    Field,
    laplacian_eigenvalues,
    nodal_from_coeffs,
    norm_h1,
    norm_l2,
    random_coeffs,
    random_field,
    save_field,
)
from .noise import ConfigError, NoiseStream, OUKernel, ou_init, wiener_shift
from .operators import (
    bilinear_b,
    boundary_flux,
    harmonicity_residual,
    neumann_lift,
    semigroup,
    streamfunction_coeffs,
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def write_json(path, payload: dict) -> None:
    """Write strict JSON: a NaN in a report is an error, never the token NaN."""
    text = json.dumps(_jsonable(payload), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _report_payload(name: str, config: RunConfig, body: dict) -> dict:
    return {"report": name, "config": config.to_flat_dict(), **body}


# ---------------------------------------------------------------------------
# validate: run the operator and noise invariant suites
# ---------------------------------------------------------------------------


def _suite_bilinear(config: RunConfig) -> dict:
    grid = config.grid()
    rng = np.random.default_rng(2024)
    worst_self = 0.0
    worst_anti = 0.0
    for _ in range(20):
        v1, v2, v3 = (random_field(grid, rng) for _ in range(3))
        # the L2 inner products are coefficient sums (Parseval)
        b12 = bilinear_b(v1, v2).coeffs
        b13 = bilinear_b(v1, v3).coeffs
        scale_self = max(norm_l2(v1.coeffs) * norm_h1(v2.coeffs) ** 2, 1e-300)
        worst_self = max(worst_self, abs(float(np.sum(b12 * v2.coeffs))) / scale_self)
        scale_anti = max(norm_l2(v1.coeffs) * norm_h1(v2.coeffs) * norm_h1(v3.coeffs), 1e-300)
        anti = float(np.sum(b12 * v3.coeffs)) + float(np.sum(b13 * v2.coeffs))
        worst_anti = max(worst_anti, abs(anti) / scale_anti)
    ok = worst_self <= 1e-12 and worst_anti <= 1e-12
    return {
        "name": "advection skew-symmetry",
        "passed": bool(ok),
        "detail": f"self-orthogonality {worst_self:.3e}, antisymmetry {worst_anti:.3e}",
    }


def _suite_poisson(config: RunConfig) -> dict:
    grid = config.grid()
    rng = np.random.default_rng(7)
    worst = 0.0
    lam = laplacian_eigenvalues(grid)
    for _ in range(5):
        u = random_coeffs(grid, rng)
        u_nodal = nodal_from_coeffs(u, Basis.NEUMANN_COSINE, grid)
        psi = streamfunction_coeffs(u_nodal, grid)
        lap_psi = nodal_from_coeffs(-lam * psi, Basis.DIRICHLET_SINE, grid)
        # the sine synthesis vanishes on the boundary, so compare in the interior
        diff = lap_psi - u_nodal
        worst = max(worst, float(np.max(np.abs(diff[1:-1, 1:-1]))) / max(norm_l2(u), 1e-300))
    return {
        "name": "streamfunction solve residual",
        "passed": bool(worst < 1e-10),
        "detail": f"max interior residual {worst:.3e}",
    }


def _suite_lift(config: RunConfig) -> dict:
    grid = config.grid()
    g = np.array([1.0, 0.5, -0.25])
    u = neumann_lift(g, grid, config.nu)
    harm = harmonicity_residual(u, config.nu)
    flux = boundary_flux(u, config.nu)
    fluxerr = float(np.max(np.abs(flux[:3] - g)))
    ok = harm < 1e-8 and fluxerr < 1e-8
    return {
        "name": "boundary lift residual",
        "passed": bool(ok),
        "detail": f"harmonicity {harm:.3e}, flux error {fluxerr:.3e}",
    }


def _suite_semigroup(config: RunConfig) -> dict:
    grid = config.grid()
    f = random_coeffs(grid, np.random.default_rng(11))
    s, t = 0.21, 0.34
    once = semigroup(f, config.nu, s + t)
    twice = semigroup(semigroup(f, config.nu, s), config.nu, t)
    err = float(np.max(np.abs(once - twice)))
    contract = norm_l2(semigroup(f, config.nu, 0.5)) <= math.exp(
        -config.nu * math.pi**2 * 0.5
    ) * norm_l2(f) * (1 + 1e-12)
    ok = err < 1e-14 * max(1.0, norm_l2(f)) and contract
    return {
        "name": "heat semigroup law",
        "passed": bool(ok),
        "detail": f"composition error {err:.3e}, contractivity {contract}",
    }


def _suite_ou(kernel: OUKernel) -> dict:
    stream = NoiseStream(seed=424242, dt=kernel.dt)
    var = kernel.stat_gain**2  # each chain entry's analytic stationary variance
    samples = 3000
    acc = np.zeros(var.shape)
    for i in range(samples):
        acc += ou_init(kernel, wiener_shift(stream, -i)) ** 2
    acc /= samples
    tol = 5.0 * math.sqrt(2.0 / samples)  # ~5 sigma on a variance ratio
    worst = float(np.max(np.abs(acc[var > 0] / var[var > 0] - 1.0), initial=0.0))
    return {
        "name": "coefficient process stationarity",
        "passed": bool(worst < tol),
        "detail": f"worst variance ratio error {worst:.3f} (tolerance {tol:.3f})",
    }


def _suite_cocycle(config: RunConfig, kernel: OUKernel) -> dict:
    z0 = random_field(kernel.grid, np.random.default_rng(31), 0.1)
    stream = NoiseStream(seed=9001, dt=config.dt)
    ok = analysis.cocycle_check(stream, kernel, 5 * config.dt, 7 * config.dt, z0)
    if kernel.n_channels == 0:
        # every shift of the stream drives nothing, so a mis-shifted run cannot differ
        return {
            "name": "cocycle flow property",
            "passed": bool(ok),
            "detail": f"aligned {ok}, mis-shifted control does not apply without noise",
        }
    bad = analysis.cocycle_check(
        stream, kernel, 5 * config.dt, 7 * config.dt, z0, shift_override=8 * config.dt
    )
    return {
        "name": "cocycle flow property",
        "passed": bool(ok and not bad),
        "detail": f"aligned {ok}, mis-shifted control {bad}",
    }


def cmd_validate(config: RunConfig, outdir: str) -> int:
    kernel = config.kernel()
    checks = [
        _suite_bilinear(config),
        _suite_poisson(config),
        _suite_lift(config),
        _suite_semigroup(config),
        _suite_ou(kernel),
        _suite_cocycle(config, kernel),
    ]
    passed = all(c["passed"] for c in checks)
    payload = _report_payload("validate", config, {"passed": passed, "checks": checks})
    write_json(os.path.join(outdir, "validate.json"), payload)
    for c in checks:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# experiment subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(config: RunConfig, outdir: str) -> int:
    grid = config.grid()
    kernel = config.kernel()
    for seed in sorted(config.seeds):
        stream = NoiseStream(seed=seed, dt=config.dt)
        start = start_state(kernel, stream, (Field.zeros(grid, Basis.NEUMANN_COSINE),))
        rows = []
        for state in evolve(config.t_end, stream, start):
            (z,) = state.members
            planes = state.kernel.planes(state.zw)
            rows.append(
                (
                    state.step * config.dt,
                    norm_l2(z),
                    norm_h1(z),
                    norm_l2(untransform(z, planes)),
                    norm_l2(planes[0]),
                    norm_l2(planes[1]),
                )
            )
        write_csv(
            os.path.join(outdir, f"simulate_seed{seed}.csv"),
            ["t", "z_l2", "z_h1", "u_l2", "zw1_l2", "zw2_l2"],
            rows,
        )
        save_field(
            os.path.join(outdir, f"simulate_seed{seed}_final.field"),
            Field(grid, Basis.NEUMANN_COSINE, z),
            time=config.t_end,
        )
        write_json(
            os.path.join(outdir, f"simulate_seed{seed}.json"),
            _report_payload(
                "simulate",
                config,
                {"seed": seed, "final_z_l2": norm_l2(z), "steps": state.step},
            ),
        )
    return 0


def cmd_synchronize(config: RunConfig, outdir: str) -> int:
    grid = config.grid()
    kernel = config.kernel()
    all_converged = True
    summary = []
    for seed in sorted(config.seeds):
        rng = np.random.default_rng((seed, 0x51AC))
        z0a = random_field(grid, rng, 0.05)
        z0b = random_field(grid, rng, 0.05)
        report = analysis.synchronization_experiment(seed, kernel, z0a, z0b, config.t_end)
        times, distances = report.pop("times"), report.pop("distances")
        all_converged = all_converged and report["converged"]
        write_csv(
            os.path.join(outdir, f"synchronize_seed{seed}.csv"),
            ["t", "distance"],
            zip(times, distances),
        )
        summary.append({"seed": seed, **report})
    write_json(
        os.path.join(outdir, "synchronize.json"),
        _report_payload(
            "synchronize",
            config,
            {"all_converged": all_converged, "per_seed": summary},
        ),
    )
    return 0 if all_converged else 1


def cmd_radius(config: RunConfig, outdir: str) -> int:
    report = analysis.radius_invariance_experiment(
        config.seeds, config.kernel(), config.t_end, window=config.rho_window
    )
    write_json(os.path.join(outdir, "radius.json"), _report_payload("radius", config, report))
    return 0 if report["total_violations"] == 0 else 1


def cmd_check_condition(config: RunConfig, outdir: str) -> int:
    report = analysis.check_condition(config.kernel(), config.mc_samples, min(config.seeds))
    write_json(
        os.path.join(outdir, "check-condition.json"),
        _report_payload("check-condition", config, report),
    )
    print(f"contraction condition satisfied: {report['satisfied']}")
    return 0


def cmd_stationary(config: RunConfig, outdir: str) -> int:
    report = analysis.stationary_statistics(config.seeds, config.kernel(), config.t_end, config.burn)
    write_json(
        os.path.join(outdir, "stationary.json"),
        _report_payload("stationary", config, report),
    )
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "synchronize": cmd_synchronize,
    "radius": cmd_radius,
    "check-condition": cmd_check_condition,
    "stationary": cmd_stationary,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qgsync",
        description="simulate and verify the randomly forced quasigeostrophic flow",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a key=value configuration file")
    parser.add_argument("--output", help="output directory (overrides output.dir)")
    parser.add_argument("--seeds", help="comma-separated seed list override")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config) if args.config else RunConfig()
        if args.seeds:
            flat = config.to_flat_dict()
            flat["seeds"] = args.seeds
            config = config_from_flat(flat)
        outdir = args.output or config.output_dir
        os.makedirs(outdir, exist_ok=True)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](config, outdir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except analysis.DecayConditionError as exc:
        print(f"experiment refused: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"experiment diverged: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
