"""qgsync benchmark: CLI workloads timed end to end, with a traced per-layer breakdown.

Usage (from the repository root):

    python3 perfbench/run.py --workload sync-desk --seed 1 --seconds 35 --trace 0

Each repetition is a fresh process (`perfbench/worker.py`) that imports
qgsync from `src/`, parses the generated configuration and calls
`qgsync.cli.main` once.  Repetitions run one after another (a closed loop
of one client) until `--seconds` have passed; every metric is the median
over repetitions.  All repetitions of a run share one configuration, made
from `--seed`, so their reports must be byte-identical.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates plain
and traced repetitions and prints the per-layer metrics of the traced ones,
plus the tracing overhead; end-to-end numbers never come from traced
repetitions.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

MIN_REPS = 3  # repetitions per run, however short --seconds is
REP_TIMEOUT_S = 150.0
TRACE_CAP_S = 140.0  # no traced repetition starts after this much of a run
STEP_SAMPLES = 1000  # 1000 step spans leave ten beyond the 99th percentile

LIMITS = (
    "shared {nproc}-core sandbox; caches are not dropped, CPUs are not pinned "
    "and the machine is not isolated; bytes moved are not measured"
)

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    "sync-desk": {
        "command": "synchronize",
        "seeds": 16,
        "members": 2,
        "keys": {"time.t_end": "0.5", "time.burn": "0.25"},
        "why": "the headline verdict: two members per seed share one noise path, "
        "so the cost is per-call overhead on many 33x33 fields",
        "stresses": ["fields", "dynamics", "noise"],
        "bypasses": ["operators.estimate_constants", "analysis.check_condition"],
    },
    "noise-chain": {
        "command": "check-condition",
        "seeds": 1,
        "members": 0,
        "keys": {},
        "why": "no field is stepped: ~10k sequential OU steps plus 200 random-access "
        "stationary draws, so the cost is the noise layer",
        "stresses": ["noise", "analysis", "operators.estimate_constants"],
        "bypasses": ["dynamics"],
    },
    "fine-grid": {
        "command": "simulate",
        "seeds": 1,
        "members": 1,
        "keys": {"grid.n": "256", "time.dt": "0.001", "time.t_end": "0.05", "time.burn": "0"},
        "why": "n = 256 below the advective limit with the CFL check and observer on: "
        "the dense O(n^3) Jacobian and the n = 256 transforms dominate",
        "stresses": ["operators.bilinear_b", "fields transforms", "dynamics"],
        "bypasses": ["analysis", "noise (about 2% of time)", "Field construction overhead"],
    },
}

# which end-to-end metric each layer should move, and on which workloads
LAYER_MAP = {
    "fields": {"moves": ["steps_per_s", "run_s"], "on": ["sync-desk", "noise-chain"], "flat_on": ["fine-grid"]},
    "operators": {"moves": ["steps_per_s", "run_s", "cpu_s"], "on": ["fine-grid"], "flat_on": ["noise-chain"]},
    "noise": {"moves": ["run_s"], "on": ["noise-chain", "sync-desk"], "flat_on": ["fine-grid"]},
    "dynamics": {"moves": ["steps_per_s", "peak_rss_mb"], "on": ["sync-desk", "fine-grid"], "flat_on": ["noise-chain"]},
    "analysis": {"moves": ["run_s"], "on": ["noise-chain"], "flat_on": ["fine-grid"]},
    "config": {"moves": ["setup_s"], "on": ["sync-desk", "noise-chain", "fine-grid"], "flat_on": []},
    "cli": {"moves": ["run_s"], "on": ["fine-grid"], "flat_on": ["noise-chain"]},
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, how it is read from one traced repetition)
PER_LAYER = {
    "fields.field_inits": ("count", ("calls", ["fields.Field.__init__"])),
    "fields.field_init_s": ("s", ("incl", ["fields.Field.__init__"])),
    "fields.transforms": ("count", ("calls", ["fields.coeffs_from_nodal", "fields.nodal_from_coeffs"])),
    "fields.transform_s": ("s", ("incl", ["fields.coeffs_from_nodal", "fields.nodal_from_coeffs"])),
    "fields.norm_s": ("s", ("incl", ["fields.norm_l2", "fields.norm_h1"])),
    "operators.bilinear_b_calls": ("count", ("calls", ["operators.bilinear_b"])),
    "operators.bilinear_b_s": ("s", ("incl", ["operators.bilinear_b"])),
    "operators.poisson_calls": ("count", ("calls", ["operators.dirichlet_poisson"])),
    "operators.poisson_s": ("s", ("incl", ["operators.dirichlet_poisson"])),
    "operators.beta_term_s": ("s", ("incl", ["operators.beta_term"])),
    "operators.constants_s": ("s", ("incl", ["operators.estimate_constants"])),
    "operators.lift_builds": ("count", ("calls", ["operators.lifting_matrix"])),
    "noise.normals_calls": ("count", ("calls", ["noise.NoiseStream.normals"])),
    "noise.normals_s": ("s", ("incl", ["noise.NoiseStream.normals"])),
    "noise.normals_per_call": ("draws/call", ("normals_per_call", [])),
    "noise.ou_step_calls": ("count", ("calls", ["noise.ou_step"])),
    "noise.ou_step_s": ("s", ("incl", ["noise.ou_step"])),
    "noise.ou_init_calls": ("count", ("calls", ["noise.ou_init"])),
    "noise.ou_init_s": ("s", ("incl", ["noise.ou_init"])),
    "noise.kernel_builds": ("count", ("calls", ["noise.OUKernel.__init__"])),
    "dynamics.step_calls": ("count", ("calls", ["dynamics.step_imex"])),
    "dynamics.step_s": ("s", ("incl", ["dynamics.step_imex"])),
    "dynamics.step_ms_p50": ("ms", ("step_pct", [50])),
    "dynamics.step_ms_p99": ("ms", ("step_pct", [99])),
    "dynamics.untransform_s": ("s", ("incl", ["dynamics.untransform"])),
    "analysis.self_s": ("s", ("layer_self", ["analysis"])),
    "analysis.compute_r_calls": ("count", ("calls", ["analysis.compute_r"])),
    "config.parse_s": ("s", ("incl", ["config.parse_config"])),
    "cli.self_s": ("s", ("layer_self", ["cli"])),
    "cli.write_s": ("s", ("incl", ["cli.write_csv", "cli.write_json", "fields.save_field"])),
    "cli.bytes_written": ("bytes", ("bytes_written", [])),
    "trace.overhead_frac": ("ratio", ("overhead", [])),
}


def make_config(workload: str, seed: int) -> str:
    """Configuration text for one run; a pure function of (workload, seed)."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seeds = sorted(rng.sample(range(1, 1_000_000), spec["seeds"]))
    lines = [f"{key} = {value}" for key, value in spec["keys"].items()]
    lines.append("seeds = " + ",".join(str(s) for s in seeds))
    return "\n".join(lines) + "\n"


def _config_values(text: str) -> dict:
    items = dict(line.split(" = ", 1) for line in text.splitlines())
    return {
        "n_seeds": len(items["seeds"].split(",")),
        "t_end": float(items.get("time.t_end", "10.0")),
        "dt": float(items.get("time.dt", "0.01")),
    }


# ---------------------------------------------------------------------------
# output checks and verdicts
# ---------------------------------------------------------------------------


class RunFailed(Exception):
    """A repetition crashed, timed out or wrote output that fails a check."""


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def _strict_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except ValueError as exc:
        raise RunFailed(f"{path.name} is not strict JSON: {exc}") from None


def _chain_steps(report: dict) -> int:
    """Sequential OU steps that check-condition runs, from its own report.

    Mirrors `analysis.check_condition`: one burn window of 20 / margin time
    units, then `mc.samples` decimation gaps of 0.5 time units.
    """
    cfg, k = report["config"], report["constants"]
    grad2 = report["estimates"]["E_grad2"]["mean"]
    nu, r, beta, dt = cfg["params.nu"], cfg["params.r"], cfg["params.beta"], cfg["time.dt"]
    margin = (
        k["lambda1"] * nu + 2.0 * r - 2.0 * k["c_gx"] * beta - 3.0 * k["c_b"] ** 2 / nu * grad2
    )
    if margin <= 0:
        raise RunFailed("mean-damping margin is not positive; no chain was run")
    burn = max(2, int(round(20.0 / margin / dt)))
    return burn + cfg["mc.samples"] * max(1, int(round(0.5 / dt)))


def check_outputs(workload: str, outdir: Path, exit_code: int, cfg: dict) -> dict:
    """Check one repetition's outputs; return its verdict, digest and work done."""
    command = WORKLOADS[workload]["command"]
    allowed = {0, 1} if command == "synchronize" else {0}
    if exit_code not in allowed:
        raise RunFailed(f"qgsync {command} exited with {exit_code}")
    reports = {}
    digest = hashlib.sha256()
    written = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        written += len(data)
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        if path.suffix == ".json":
            reports[path.name] = _strict_json(path)
    if command == "synchronize":
        per_seed = reports["synchronize.json"]["per_seed"]
        if len(per_seed) != cfg["n_seeds"]:
            raise RunFailed("synchronize report lacks seeds")
        verdict = {"converged": [p["converged"] for p in per_seed]}
    elif command == "check-condition":
        report = reports["check-condition.json"]
        verdict = {"satisfied": report["satisfied"], "lhs": report["lhs"]}
    else:
        (report,) = reports.values()
        z = report["final_z_l2"]
        if not isinstance(z, float) or not math.isfinite(z):
            raise RunFailed(f"final z_l2 is not finite: {z!r}")
        verdict = {"final_z_l2": z}
    steps = round(cfg["t_end"] / cfg["dt"])
    members = WORKLOADS[workload]["members"]
    work = cfg["n_seeds"] * members * steps if members else _chain_steps(report)
    return {"verdict": verdict, "digest": digest.hexdigest(), "bytes": written, "work": work}


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def _env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_rep(workload: str, cfg_path: Path, cfg: dict, workdir: Path, index: int, traced: bool, env: dict) -> dict:
    outdir = workdir / f"rep{index}"
    outdir.mkdir()
    result_path = workdir / f"rep{index}.json"
    cmd = [
        sys.executable, str(WORKER), str(SRC), WORKLOADS[workload]["command"],
        str(cfg_path), str(outdir), str(result_path), "1" if traced else "0",
    ]
    env["PERFBENCH_T0"] = repr(time.perf_counter())
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"timed out after {REP_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise RunFailed(f"worker exited with {proc.returncode}: {tail[0]}")
    result = json.loads(result_path.read_text())
    result.update(check_outputs(workload, outdir, result["exit_code"], cfg))
    shutil.rmtree(outdir)
    return result


class Run:
    """Repetitions of one run and the tallies the result line reports."""

    def __init__(self, workload: str, seed: int, workdir: Path, blas_threads: int):
        self.workload = workload
        self.workdir = workdir
        self.env = _env(blas_threads)
        text = make_config(workload, seed)
        self.cfg = _config_values(text)
        self.cfg_path = workdir / "run.cfg"
        self.cfg_path.write_text(text)
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = None

    def rep(self, traced: bool) -> None:
        self.attempted += 1
        try:
            result = run_rep(
                self.workload, self.cfg_path, self.cfg, self.workdir,
                self.attempted, traced, self.env,
            )
            if self.digest is None:
                self.digest = result["digest"]
            elif result["digest"] != self.digest:
                raise RunFailed("outputs differ from an earlier repetition of the same seed")
        except RunFailed as exc:
            self.failures.append(f"repetition {self.attempted}: {exc}")
            return
        (self.traced if traced else self.plain).append(result)


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(reps: list[dict]) -> dict:
    return {
        "setup_s": _median(r["setup_s"] for r in reps),
        "run_s": _median(r["run_s"] for r in reps),
        "cpu_s": _median(r["cpu_s"] for r in reps),
        "steps_per_s": _median(r["work"] / r["run_s"] for r in reps),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps),
    }


def _nearest_rank(sorted_values: list, pct: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_value(how, rep: dict, steps_sorted: list, overhead: float) -> float:
    kind, args = how
    keys = rep["trace"]["keys"]
    if kind == "calls":
        return sum(keys.get(k, {}).get("calls", 0) for k in args)
    if kind == "incl":
        return sum(keys.get(k, {}).get("incl_s", 0.0) for k in args)
    if kind == "layer_self":
        return rep["trace"]["layer_self_s"].get(args[0], 0.0)
    if kind == "normals_per_call":
        calls = keys.get("noise.NoiseStream.normals", {}).get("calls", 0)
        return rep["trace"]["normals_drawn"] / calls if calls else 0.0
    if kind == "step_pct":
        return _nearest_rank(steps_sorted, args[0])
    if kind == "bytes_written":
        return rep["bytes"]
    if kind == "overhead":
        return overhead
    raise ValueError(f"unknown per-layer metric kind {kind!r}")


def per_layer_metrics(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: counts must repeat exactly, times are medians over traced reps."""
    problems = []
    steps_sorted = sorted(ms for r in traced for ms in r["trace"]["step_ms"])
    overhead = _median(r["run_s"] for r in traced) / _median(r["run_s"] for r in plain) - 1.0
    metrics = {}
    for name, (unit, how) in PER_LAYER.items():
        values = [layer_value(how, r, steps_sorted, overhead) for r in traced]
        if unit in ("count", "bytes", "draws/call"):
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced repetitions: {sorted(set(values))}")
            metrics[name] = values[0]
        else:
            metrics[name] = _median(values)
    # the trace must count the work steps_per_s divides by
    work = traced[0]["work"]
    counted = metrics["dynamics.step_calls" if WORKLOADS[workload]["members"] else "noise.ou_step_calls"]
    if counted != work:
        problems.append(f"traced step count {counted} does not match the counted work {work}")
    return metrics, problems


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def provenance(blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    def blas(module) -> str:
        dep = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', 'unknown')} {dep.get('version', '')}".strip()

    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "blas_threads": blas_threads,
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure(args, workdir: Path, blas_threads: int) -> Run:
    run = Run(args.workload, args.seed, workdir, blas_threads)
    started = time.perf_counter()

    def elapsed():
        return time.perf_counter() - started

    if not args.trace:
        while elapsed() < args.seconds or run.attempted < MIN_REPS:
            run.rep(traced=False)
        return run
    # plain and traced repetitions alternate, so both see the same machine state
    while elapsed() < args.seconds or run.attempted < 2 * MIN_REPS:
        run.rep(traced=False)
        run.rep(traced=True)
    # then enough traced steps for the 99th step percentile, within the cap
    members = WORKLOADS[args.workload]["members"]
    while members and run.traced and elapsed() < TRACE_CAP_S and (
        sum(len(r["trace"]["step_ms"]) for r in run.traced) < STEP_SAMPLES
    ):
        run.rep(traced=True)
    return run


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgsync" / "cli.py").is_file():
        print(f"error: no qgsync sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: the running repetition is killed and waited for, files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    blas_threads = len(os.sched_getaffinity(0))
    spec = WORKLOADS[args.workload]
    workbase = ROOT / ".perfbench_work"
    workbase.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workbase))
    try:
        run = measure(args, workdir, blas_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workbase.rmdir()
        except OSError:
            pass  # another run still uses it

    ok = run.plain if not args.trace else run.traced
    if not ok or (args.trace and not run.plain):
        for line in run.failures:
            print(line, file=sys.stderr)
        print("error: no repetition succeeded", file=sys.stderr)
        return 1

    problems = list(run.failures)
    if args.trace:
        metrics, mismatch = per_layer_metrics(args.workload, run.plain, run.traced)
        problems += mismatch
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        steps = sum(len(r["trace"]["step_ms"]) for r in run.traced)
    else:
        metrics = end_to_end_metrics(run.plain)
        units = END_TO_END

    prov = provenance(blas_threads)
    print(f"workload {args.workload}: qgsync {spec['command']}, seed {args.seed}; {spec['why']}")
    print(f"stresses {', '.join(spec['stresses'])}; bypasses {', '.join(spec['bypasses'])}")
    print(f"repetitions: {len(run.plain)} plain, {len(run.traced)} traced, {run.attempted} attempted")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  error_rate = {len(run.failures)}/{run.attempted} failed/attempted")
    print("  run_s per plain repetition: " + " ".join(f"{r['run_s']:.3f}" for r in run.plain))
    if args.trace:
        print(f"  step samples: {steps} (p99 has {steps - math.ceil(0.99 * steps)} beyond it)")
        self_s = {
            layer: _median(r["trace"]["layer_self_s"].get(layer, 0.0) for r in run.traced)
            for layer in LAYER_MAP
        }
        total = sum(self_s.values())
        shares = ", ".join(f"{layer} {v / total:.1%}" for layer, v in self_s.items())
        print(f"layer self-time shares of traced time: {shares}")
        print("layer map: " + json.dumps(LAYER_MAP))
    print("verdict: " + json.dumps(ok[0]["verdict"]))
    print("provenance: " + json.dumps(prov))
    print("limits: " + LIMITS.format(nproc=prov["nproc"]))
    for line in problems:
        print(f"FAILED CHECK: {line}")
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
