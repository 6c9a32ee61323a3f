"""Configuration parsing, subcommand behaviour, output determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgsync
from qgsync import cli
from qgsync.cli import main, write_json
from qgsync.config import RunConfig, config_from_flat, parse_config
from qgsync.noise import ConfigError


SMALL_CONFIG = """
# desk-scale test configuration
grid.n = 16
params.nu = 1.0
params.r = 1.0
params.beta = 0.1
noise.q1_amplitude = 3e-4
noise.q1_decay = 3
noise.q2_amplitude = 3e-4
noise.q2_decay = 2.5
noise.cutoff = 3
time.dt = 0.01
time.t_end = 1.0
time.burn = 0.5
rho.window = auto
mc.samples = 120
seeds = 1,2
output.dir = out
"""


def write_config(tmp_path, text=SMALL_CONFIG, **overrides):
    lines = []
    for line in text.strip().splitlines():
        if "=" in line and not line.strip().startswith("#"):
            key = line.split("=")[0].strip()
            if key in overrides:
                line = f"{key} = {overrides.pop(key)}"
        lines.append(line)
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        again = config_from_flat(cfg.to_flat_dict())
        assert again == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "params.mu = 1.0\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_dt_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, **{"time.dt": "-0.01"}))

    def test_bad_interior_decay_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, **{"noise.q2_decay": "1.5"}))

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "grid.n = 32\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.grid().n == 32
        assert cfg.params().nu == 1.0

    def test_explicit_window(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, **{"rho.window": "2.5"}))
        assert cfg.rho_window == 2.5


_VALUE = st.one_of(st.floats().map(repr), st.integers().map(str), st.text(max_size=8))
_FLAT_VALUES = {
    # parsing allocates (n+1)^2 arrays, so the grid stays at or below 256
    "grid.n": st.integers(max_value=256).map(str),
    "params.nu": _VALUE,
    "params.r": _VALUE,
    "params.beta": _VALUE,
    "noise.q1_amplitude": _VALUE,
    "noise.q1_decay": _VALUE,
    "noise.q2_amplitude": _VALUE,
    "noise.q2_decay": _VALUE,
    "noise.cutoff": _VALUE,
    "time.dt": _VALUE,
    "time.t_end": _VALUE,
    "time.burn": _VALUE,
    "rho.window": st.one_of(st.just("auto"), _VALUE),
    "mc.samples": _VALUE,
    "seeds": st.one_of(st.lists(st.integers(), max_size=4).map(lambda s: ",".join(map(str, s))), st.text(max_size=8)),
    "output.dir": st.text(max_size=8),
}


_KNOWN_LINE = st.sampled_from(sorted(_FLAT_VALUES)).flatmap(lambda key: _FLAT_VALUES[key].map(lambda v: f"{key} = {v}"))
# junk keys never name a known key, so no line can ask for a grid above 256
_JUNK_LINE = st.tuples(st.text(max_size=8).filter(lambda k: k.strip() not in _FLAT_VALUES), st.text(max_size=8))
_LINE = st.one_of(
    _KNOWN_LINE,
    _JUNK_LINE.map("=".join),
    st.text(max_size=12).map(lambda t: "#" + t),
    st.just(""),
    st.text(alphabet=st.characters(exclude_characters="="), max_size=12),
    st.text(alphabet="ab =#\t\x00", max_size=6),
)
# lines joined by \n or \r\n; a known key may repeat, which is a duplicate-key error
_CONFIG_TEXT = st.tuples(st.lists(_LINE, max_size=12), st.sampled_from(["\n", "\r\n"])).map(
    lambda parts: parts[1].join(parts[0]).encode()
)


def _assert_finite(cfg: RunConfig) -> None:
    floats = [v for v in vars(cfg).values() if isinstance(v, float)]
    assert all(math.isfinite(v) for v in floats)


class TestConfigProperty:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.fixed_dictionaries({}, optional=_FLAT_VALUES))
    @example({"time.dt": "1e-320"})
    @example({"noise.q1_amplitude": "0", "noise.q1_decay": "-1000"})
    @example({"noise.q2_amplitude": "0", "noise.q2_decay": "-1000"})
    def test_parses_to_finite_config_or_raises_value_error(self, items):
        # ConfigError subclasses ValueError; any other exception is a defect
        try:
            cfg = config_from_flat(items)
        except ValueError:
            return
        _assert_finite(cfg)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_CONFIG_TEXT)
    @example(b"grid.n = 16\n\xff\xfe = 1\n")
    @example(b"seeds = 1e3\n")
    def test_file_parses_to_finite_config_or_raises_value_error(self, tmp_path_factory, text):
        # ConfigError and UnicodeDecodeError both subclass ValueError
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_bytes(text)
        try:
            cfg = parse_config(path)
        except ValueError:
            return
        _assert_finite(cfg)


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "key, value, command",
        [
            ("noise.q2_amplitude", "nan", "check-condition"),
            ("params.nu", "nan", "simulate"),
            ("time.t_end", "inf", "simulate"),
        ],
    )
    def test_config_error_exit_code(self, tmp_path, capsys, key, value, command):
        cfg = write_config(tmp_path, **{key: value})
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_reports_reject_nan(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            write_json(path, {"lhs": float("nan")})
        assert not path.exists()


class TestParseTimeRejections:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"time.t_end": "0.015", "time.burn": "0"},
            {"time.burn": "0.505"},
            {"seeds": "3,3"},
            {"grid.n": "8", "noise.cutoff": "12"},
            {"time.dt": "1e-320"},
            {"seeds": "-3"},
            {"params.nu": "1e-320"},
        ],
        ids=[
            "t_end_off_grid",
            "burn_off_grid",
            "duplicate_seeds",
            "cutoff_above_n",
            "t_end_over_dt_overflows",
            "negative_seed",
            "subnormal_viscosity",
        ],
    )
    def test_rejected_with_exit_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_duplicate_seed_override_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output", str(out), "--seeds", "3,3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    def test_largest_cutoff_accepted(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, **{"grid.n": "8", "noise.cutoff": "7"}))
        assert cfg.cutoff == 7

    def test_config_error_after_parsing_exits_2(self, tmp_path, capsys, monkeypatch):
        def failing(config, outdir):
            raise ConfigError("time 0.015 is not a multiple of dt=0.01")

        monkeypatch.setitem(cli._COMMANDS, "simulate", failing)
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: time 0.015 is not a multiple of dt=0.01\n"

    def test_output_under_a_regular_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "notadir").write_text("")
        out = tmp_path / "notadir" / "sub"
        assert main(["simulate", "--config", str(write_config(tmp_path)), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1


class TestOutputErrors:
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "simulate_seed1.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, seeds="1", **{"time.t_end": "0.05", "time.burn": "0"})
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.count("\n") == 1


class TestOverflowRefusals:
    @pytest.mark.parametrize("command", ["check-condition", "radius"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"params.nu": "1e-300"},
            {"noise.q1_amplitude": "1e200"},
            # finite samples whose moments overflow: the squares at 3e153, their spread at 1e150
            {"noise.q1_amplitude": "0", "noise.q2_amplitude": "3e153"},
            {"noise.q1_amplitude": "0", "noise.q2_amplitude": "1e150"},
        ],
        ids=["tiny_viscosity", "huge_boundary_noise", "interior_noise_3e153", "interior_noise_1e150"],
    )
    def test_overflowing_moments_exit_3(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, seeds="1", **overrides)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("experiment refused:") and err.count("\n") == 1
        assert not any(out.iterdir())


class TestDivergence:
    def test_overflowing_run_exits_4_without_runtime_warnings(self, tmp_path):
        # a fresh interpreter shows warnings as the command line does; only
        # the CFL warning before the diverging step may precede the message
        cfg = write_config(
            tmp_path, seeds="1", **{"noise.q1_amplitude": "1e300", "time.t_end": "0.1", "time.burn": "0"}
        )
        env = {**os.environ, "PYTHONPATH": str(Path(qgsync.__file__).parents[1])}
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "qgsync.cli", "simulate", "--config", str(cfg), "--output", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 4
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("experiment diverged:")


    def test_overflowing_stationary_exits_4_with_one_line(self, tmp_path, capsys):
        # the post-burn physical field's energy overflows: its moments are not estimable
        overrides = {
            "noise.q1_amplitude": "1e300",
            "noise.q2_amplitude": "1e300",
            "time.t_end": "0.01",
            "time.burn": "0",
        }
        cfg = write_config(tmp_path, seeds="1,2", **overrides)
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(cfg), "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("experiment diverged:") and err.count("\n") == 1
        assert not any(out.iterdir())


class TestStartUp:
    def test_cli_import_loads_no_scipy(self):
        # scipy costs about 0.3 s of every run's start-up; only the tests use it
        env = {**os.environ, "PYTHONPATH": str(Path(qgsync.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, qgsync.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCommands:
    def test_validate_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["validate", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        payload = json.loads((out / "validate.json").read_text())
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} >= {
            "advection skew-symmetry",
            "boundary lift residual",
            "cocycle flow property",
        }

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, **{"time.dt": "0"})
        assert main(["validate", "--config", str(cfg)]) == 2

    def test_simulate_writes_series(self, tmp_path):
        cfg = write_config(tmp_path, seeds="5")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        csv = (out / "simulate_seed5.csv").read_text().splitlines()
        assert csv[0] == "t,z_l2,z_h1,u_l2,zw1_l2,zw2_l2"
        assert len(csv) == 102  # header + 101 states
        assert (out / "simulate_seed5_final.field").exists()

    def test_synchronize_converges(self, tmp_path):
        cfg = write_config(tmp_path, seeds="3", **{"time.t_end": "3.0"})
        out = tmp_path / "out"
        assert main(["synchronize", "--config", str(cfg), "--output", str(out)]) == 0
        payload = json.loads((out / "synchronize.json").read_text())
        assert payload["all_converged"] is True
        assert payload["per_seed"][0]["fitted_rate"] < 0

    def test_check_condition_noise_off(self, tmp_path):
        cfg = write_config(
            tmp_path,
            **{
                "noise.q1_amplitude": "0",
                "noise.q2_amplitude": "0",
                "params.beta": "0",
            },
        )
        out = tmp_path / "out"
        assert main(["check-condition", "--config", str(cfg), "--output", str(out)]) == 0
        payload = json.loads((out / "check-condition.json").read_text())
        assert payload["satisfied"] is True
        assert payload["lhs"] == pytest.approx(-math.pi**2 - 2.0, abs=1e-12)

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output", str(out), "--seeds", "9"]) == 0
        assert (out / "simulate_seed9.csv").exists()
        assert not (out / "simulate_seed1.csv").exists()

    def test_radius_runs(self, tmp_path):
        cfg = write_config(tmp_path, seeds="1", **{"time.t_end": "0.5", "time.burn": "0.1"})
        out = tmp_path / "out"
        assert main(["radius", "--config", str(cfg), "--output", str(out)]) == 0
        payload = json.loads((out / "radius.json").read_text())
        assert payload["total_violations"] == 0

    def test_stationary_runs(self, tmp_path):
        cfg = write_config(tmp_path, seeds="1,2", **{"time.t_end": "2.5", "time.burn": "1.5"})
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(cfg), "--output", str(out)]) == 0
        payload = json.loads((out / "stationary.json").read_text())
        assert payload["max_postburn_distance"] < 1e-5


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path, seeds="4", **{"time.t_end": "0.5", "time.burn": "0.1"})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
            assert main(["check-condition", "--config", str(cfg), "--output", str(out)]) == 0
        for name in ("simulate_seed4.csv", "simulate_seed4.json", "check-condition.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_config_echo_reparses(self, tmp_path):
        cfg_path = write_config(tmp_path, seeds="4", **{"time.t_end": "0.5", "time.burn": "0.1"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--output", str(out)]) == 0
        payload = json.loads((out / "simulate_seed4.json").read_text())
        echoed = config_from_flat(payload["config"])
        assert echoed == parse_config(cfg_path)
