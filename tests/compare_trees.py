"""Byte-identity check of the CLI between this checkout and another one.

Usage (from the repository root):

    python tests/compare_trees.py PARENT_ROOT

PARENT_ROOT is another checkout of the repository, say of the parent
commit (`git archive` or `git clone` it somewhere).  Each case runs in
both checkouts, one subcommand per fresh process, with one BLAS/OpenMP
thread and no bytecode written into either tree:

  * every subcommand of each golden case (`test_golden.CASES`), into one
    output directory per case, as the golden test runs them;
  * each perfbench workload's configuration (`perfbench/run.make_config`)
    at seeds 11 and 4093, with the workload's own subcommand, `radius`
    and `validate`.

Every output file (snapshots included), standard output, standard error
and exit code must match byte for byte.  The only text masked is each
checkout's root path in standard error, where a warning prints its source
file.  Each difference is printed; for a JSON file, so are the largest
relative difference over its numbers and every difference that is not
between two numbers, which tells round-off from a changed result where no
golden tolerance applies.  The exit code is 1 if there is any difference,
else 0.  The cases are read from this checkout; `perfbench/` is only
read.
"""

import difflib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH_SEEDS = (11, 4093)
RUN = "import sys; from qgsync.cli import main; sys.exit(main(sys.argv[1:]))"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases() -> dict:
    """case name -> (configuration text, [subcommand, ...]), read from this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    golden = _load(ROOT / "tests" / "test_golden.py")
    bench = _load(ROOT / "perfbench" / "run.py")
    found = {
        name: ("".join(f"{k} = {v}\n" for k, v in keys.items()), [command for command, _ in commands])
        for name, (keys, commands) in golden.CASES.items()
    }
    for workload, spec in bench.WORKLOADS.items():
        for seed in PERFBENCH_SEEDS:
            commands = [spec["command"], "radius", "validate"]
            found[f"{workload}-seed{seed}"] = (bench.make_config(workload, seed), commands)
    return found


def run_tree(root: Path, workdir: Path, config: str, commands) -> dict:
    """Run `commands` of one case with the qgsync of checkout `root`; label -> bytes of each result."""
    workdir.mkdir(parents=True)
    (workdir / "case.cfg").write_text(config)
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    results = {}
    for command in commands:
        done = subprocess.run(
            [sys.executable, "-c", RUN, command, "--config", "case.cfg", "--output", "out"],
            cwd=workdir,
            env=env,
            capture_output=True,
        )
        results[f"{command}: exit code"] = str(done.returncode).encode()
        results[f"{command}: stdout"] = done.stdout
        results[f"{command}: stderr"] = done.stderr.replace(str(root).encode(), b"<checkout>")
    for path in sorted((workdir / "out").glob("*")):
        results[path.name] = path.read_bytes()
    return results


def json_differences(want, got, path: str = "$") -> tuple[float, list[str]]:
    """(largest relative difference over the numbers, other differences) of two parsed JSON values.

    Two numbers that differ, both finite, count by |a - b| / max(|a|, |b|);
    every other difference (a string, a boolean, a key, a length, a
    non-finite number) is listed with its path.
    """
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if number(want) and number(got) and math.isfinite(want) and math.isfinite(got):
        return (abs(want - got) / max(abs(want), abs(got)) if want != got else 0.0), []
    if isinstance(want, dict) and isinstance(got, dict) and list(want) == list(got):
        pairs = [(want[k], got[k], f"{path}.{k}") for k in want]
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        pairs = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(want, got))]
    else:
        same = json.dumps(want) == json.dumps(got)  # NaN equals NaN here
        return 0.0, [] if same else [f"{path}: {want!r} -> {got!r}"]
    worst, other = 0.0, []
    for a, b, sub in pairs:
        rel, found = json_differences(a, b, sub)
        worst, other = max(worst, rel), other + found
    return worst, other


def differences(want: dict, got: dict) -> list[str]:
    """One message per result that the two runs of a case do not share byte for byte."""
    found = []
    for label in sorted(want.keys() | got.keys()):
        if label not in got or label not in want:
            found.append(f"{label}: written only by the {'parent' if label in want else 'change'}")
        elif want[label] != got[label]:
            diff = difflib.unified_diff(
                want[label].decode(errors="replace").splitlines(),
                got[label].decode(errors="replace").splitlines(),
                "parent",
                "change",
                lineterm="",
                n=0,
            )
            found.append(f"{label} differs:\n" + "\n".join(list(diff)[:12]))
            if label.endswith(".json"):
                try:
                    rel, other = json_differences(json.loads(want[label]), json.loads(got[label]))
                except ValueError:
                    found[-1] += "\nnot comparable as JSON"
                    continue
                found[-1] += f"\nlargest relative difference over its numbers: {rel:.3g}"
                found[-1] += "\nnon-numeric differences: " + ("; ".join(other) if other else "none")
    return found


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/compare_trees.py PARENT_ROOT", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True  # leave tests/ and perfbench/ as they are
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, commands) in cases().items():
            want = run_tree(parent, Path(tmp) / "parent" / name, config, commands)
            got = run_tree(ROOT, Path(tmp) / "change" / name, config, commands)
            problems = differences(want, got)
            failed = failed or bool(problems)
            print(f"{name}: {len(want)} results, " + ("identical" if not problems else f"{len(problems)} differ"))
            for problem in problems:
                print("  " + problem.replace("\n", "\n  "))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
