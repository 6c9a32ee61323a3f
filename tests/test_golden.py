"""Golden reports: the CLI reproduces a stored set of JSON and CSV outputs.

The fixture under `tests/golden/` holds the reports of a few short runs.
Every number must match at 1e-12 relative; strings, integers and booleans
must match exactly.  Field snapshots are not stored.  A change that is
meant to alter results regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.

The fixture's last digits are not a byte-exact reference.  Regenerating
the three `radius.json` files (`rho0`, `z0_norm`) can change their last
digit on another machine even at the commit that wrote them, within
RTOL.  So a change meant to keep results is checked by running the
parent and the change on one machine and comparing their outputs byte for
byte, not by comparing against this fixture.  A regeneration keeps the
bytes of every stored file that the new output matches (no `mismatches`),
so it rewrites only the files whose results moved beyond RTOL.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from qgsync.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

# case name -> (configuration keys, [(subcommand, expected exit code)])
CASES = {
    "default": (
        {"seeds": "1,2", "time.t_end": "1.0", "time.burn": "0.5"},
        [
            ("simulate", 0),
            ("synchronize", 0),
            ("check-condition", 0),
            ("validate", 0),
            ("radius", 0),
            ("stationary", 0),
        ],
    ),
    # no boundary noise: the coefficient chain has no lift columns
    "no-boundary": (
        {"noise.q1_amplitude": "0", "seeds": "1,2", "time.t_end": "1.0", "time.burn": "0.5"},
        [
            ("simulate", 0),
            ("synchronize", 0),
            ("check-condition", 0),
            ("validate", 0),
            ("radius", 0),
            ("stationary", 0),
        ],
    ),
    # no interior noise: the coefficient chain has no diagonal channels
    "no-interior": (
        {"noise.q2_amplitude": "0", "seeds": "1,2", "time.t_end": "1.0", "time.burn": "0.5"},
        [
            ("simulate", 0),
            ("synchronize", 0),
            ("check-condition", 0),
            ("validate", 0),
            ("radius", 0),
            ("stationary", 0),
        ],
    ),
    # n = 128 takes the stencil path of the difference operators and the FFT transforms
    "n128": (
        {"grid.n": "128", "time.dt": "0.001", "time.t_end": "0.005", "time.burn": "0", "seeds": "1"},
        [("simulate", 0), ("validate", 0)],
    ),
    # a grid that is not a power of two, where the dense difference products round
    "n50": (
        {"grid.n": "50", "time.dt": "0.005", "seeds": "1,2", "time.t_end": "0.5", "time.burn": "0.25"},
        [
            ("simulate", 0),
            ("synchronize", 0),
            ("check-condition", 0),
            ("validate", 0),
            ("radius", 0),
            ("stationary", 0),
        ],
    ),
    # strong noise at small nu: the mean-damping margin is negative, so
    # check-condition writes its refusal report and radius refuses with exit 3
    "no-margin": (
        {"params.nu": "0.01", "noise.q1_amplitude": "1e4", "noise.q2_amplitude": "1e4", "seeds": "1"},
        [("check-condition", 0), ("radius", 3)],
    ),
}


def run_case(name: str, workdir: Path) -> Path:
    """Run one case's subcommands into `workdir/name`; return that directory."""
    keys, commands = CASES[name]
    cfg = workdir / f"{name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = workdir / name
    for command, code in commands:
        got = main([command, "--config", str(cfg), "--output", str(out)])
        assert got == code, f"{name}: qgsync {command} exited with {got}, expected {code}"
    for snapshot in out.glob("*.field"):
        snapshot.unlink()
    return out


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def mismatches(got, want, where: str = "") -> list[str]:
    """Paths at which two parsed reports differ beyond the tolerance."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if _close(got, want) else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]")]
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]


def _parse_csv(text: str) -> list:
    header, *rows = text.splitlines()
    return [header.split(",")] + [[float(v) for v in row.split(",")] for row in rows]


def _parse(path: Path):
    text = path.read_text()
    return json.loads(text) if path.suffix == ".json" else _parse_csv(text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name, tmp_path):
    out = run_case(name, tmp_path)
    want_dir = GOLDEN / name
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in want_dir.iterdir())
    for want in sorted(want_dir.iterdir()):
        problems = mismatches(_parse(out / want.name), _parse(want), want.name)
        assert not problems, "\n".join(problems[:10])


def test_comparison_tolerance():
    assert mismatches({"a": [1.0, "x", True]}, {"a": [1.0 + 1e-13, "x", True]}) == []
    assert mismatches({"a": 1.0}, {"a": 1.0 + 1e-11})
    assert mismatches({"a": 1}, {"a": 1.0})
    assert mismatches([0.0], [1e-300])


def test_regeneration_rewrites_only_what_moved(tmp_path, monkeypatch):
    # a stored file within RTOL keeps its bytes, one beyond RTOL is
    # rewritten and one the run no longer writes is deleted
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path / "golden")
    monkeypatch.setitem(globals(), "CASES", {"tiny": (CASES["n128"][0], [("simulate", 0)])})
    regenerate()
    stored = tmp_path / "golden" / "tiny"
    fresh = {p.name: p.read_bytes() for p in stored.iterdir()}
    report = json.loads(fresh["simulate_seed1.json"])
    key = next(k for k, v in report.items() if isinstance(v, float) and v != 0.0)
    report[key] = math.nextafter(report[key], math.inf)
    (stored / "simulate_seed1.json").write_text(json.dumps(report))
    kept = (stored / "simulate_seed1.json").read_bytes()
    (stored / "simulate_seed1.csv").write_text("t,x\n0.0,1.0\n")
    (stored / "stale.json").write_text("{}")
    regenerate()
    assert (stored / "simulate_seed1.json").read_bytes() == kept
    assert (stored / "simulate_seed1.csv").read_bytes() == fresh["simulate_seed1.csv"]
    assert sorted(p.name for p in stored.iterdir()) == sorted(fresh)


def regenerate() -> None:
    """Rewrite the fixture from the qgsync on the import path, file by file.

    A stored file that the new output matches within RTOL keeps its bytes;
    one that differs is overwritten, a new one is added and one no longer
    written is deleted.
    """
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            out = run_case(name, Path(tmp))
            stored = GOLDEN / name
            stored.mkdir(parents=True, exist_ok=True)
            for old in stored.iterdir():
                if not (out / old.name).exists():
                    old.unlink()
            for new in out.iterdir():
                old = stored / new.name
                if not old.exists() or mismatches(_parse(new), _parse(old)):
                    shutil.copyfile(new, old)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
