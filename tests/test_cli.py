"""Configuration parsing, subcommand behaviour, output determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgsync
from qgsync import cli
from qgsync.cli import main, write_json
from qgsync.config import RunConfig, config_from_flat, parse_config
from qgsync.fields import GridSpec
from qgsync.noise import ConfigError, OUKernel
from qgsync.operators import estimate_constants


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


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


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
    st.text(alphabet=st.characters(exclude_characters="=", codec="utf-8"), max_size=12),
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

    def test_reports_write_signed_infinities(self, tmp_path):
        # Python and numpy infinities alike, in a scalar, a list and an array
        path = tmp_path / "report.json"
        payload = {
            "py": [math.inf, -math.inf],
            "np": [np.float64(np.inf), np.float64(-np.inf)],
            "array": np.array([np.inf, -np.inf, 1.5]),
        }
        write_json(path, payload)
        assert json.loads(path.read_text()) == {
            "py": ["inf", "-inf"],
            "np": ["inf", "-inf"],
            "array": ["inf", "-inf", 1.5],
        }


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

    def test_grid_too_large_to_allocate_exits_2(self, tmp_path):
        # the (n+1, n+1) float lattice of n = 2^20 is 8 TiB.  The run's
        # address space is capped at 1 GiB above what the imports hold, so
        # no overcommit policy can fault it in: numpy's allocation fails
        # and the parse refuses the grid in one line
        cfg = write_config(tmp_path, **{"grid.n": "1048576"})
        script = (
            "import resource, sys\n"
            "from qgsync.cli import main\n"
            "pages = int(open('/proc/self/statm').read().split()[0])\n"
            "limit = pages * resource.getpagesize() + (1 << 30)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(qgsync.__file__).parents[1])}
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--config", str(cfg), "--output", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "configuration error: grid.n = 1048576 needs lattice arrays too large to allocate\n"
        assert not out.exists()

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
    CASES = {
        # a viscosity whose square is 0.0 is refused at parse time, so
        # this one squares to a subnormal
        "tiny_viscosity": {"params.nu": "1e-160"},
        "huge_boundary_noise": {"noise.q1_amplitude": "1e200"},
        # (c_gx beta + r) ** 2 overflows in the driver coefficient
        "huge_friction": {"params.r": "1e200"},
        # exact moments that are finite (E|grad w|^4 is 2.1e307 and 2.3e300)
        # and a mean-damping margin far below 0
        "interior_noise_3e153": {"noise.q1_amplitude": "0", "noise.q2_amplitude": "3e153"},
        "interior_noise_1e150": {"noise.q1_amplitude": "0", "noise.q2_amplitude": "1e150"},
    }
    REFUSED = [
        ("tiny_viscosity", "check-condition"),
        ("tiny_viscosity", "radius"),
        ("huge_boundary_noise", "check-condition"),
        ("huge_boundary_noise", "radius"),
        ("huge_friction", "check-condition"),
        ("huge_friction", "radius"),
        # the radius window needs a positive margin
        ("interior_noise_3e153", "radius"),
        ("interior_noise_1e150", "radius"),
    ]

    @pytest.mark.parametrize("case, command", REFUSED, ids=[f"{case}-{command}" for case, command in REFUSED])
    def test_overflowing_moments_exit_3(self, tmp_path, capsys, case, command):
        cfg = write_config(tmp_path, seeds="1", **self.CASES[case])
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("experiment refused:") and err.count("\n") == 1
        assert not any(out.iterdir())

    @pytest.mark.parametrize("case", ["interior_noise_3e153", "interior_noise_1e150"])
    def test_finite_moments_exit_0(self, tmp_path, case):
        cfg = write_config(tmp_path, seeds="1", **self.CASES[case])
        out = tmp_path / "out"
        assert main(["check-condition", "--config", str(cfg), "--output", str(out)]) == 0
        payload = json.loads((out / "check-condition.json").read_text(), parse_constant=_reject_constant)
        assert payload["satisfied"] is False and payload["lhs"] is None
        assert payload["reason"].startswith("mean-damping condition violated")


class TestQuadratureOverflow:
    # the default grid with a step of 5 and strong friction: some window
    # step's growth factor exp(-a dt + c dt g) is past the largest float
    BASE = {
        "grid.n": "32",
        "noise.cutoff": "8",
        "mc.samples": "200",
        "time.dt": "5",
        "params.r": "50",
        "time.t_end": "10",
        "time.burn": "5",
    }

    # the condition's amplitudes keep the mean-damping margin positive, so
    # the run reaches the sampled radius moments that overflow.  The growth
    # exponent dt (c |grad w|^2 - a) has c = 3 c_b^2 / nu, and |grad w|^2 is
    # linear in the amplitudes, so each case gives its amplitudes times
    # c_b^2: that fixes every step's growth factor whatever c_b the grid has
    @pytest.mark.parametrize(
        "command, scaled, overrides, message",
        [
            (
                "check-condition",
                {"noise.q1_amplitude": 0.8419, "noise.q2_amplitude": 0.06735},
                {},
                "a sampled moment is not finite",
            ),
            (
                "radius",
                {"noise.q1_amplitude": 0.5613, "noise.q2_amplitude": 0.005613},
                {"rho.window": "1000"},
                "rho^2 at the origin is inf",
            ),
        ],
        ids=["condition_moments", "radius_origin"],
    )
    def test_overflowing_growth_exits_3_with_one_line(self, tmp_path, capsys, command, scaled, overrides, message):
        c_b = estimate_constants(GridSpec(32))
        amplitudes = {key: repr(value / c_b**2) for key, value in scaled.items()}
        cfg = write_config(tmp_path, seeds="1", **self.BASE, **amplitudes, **overrides)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"experiment refused: {message}") and err.count("\n") == 1
        assert not any(out.iterdir())


class TestViscositySquare:
    NOISE_OFF = {"noise.q1_amplitude": "0", "noise.q2_amplitude": "0"}

    @pytest.mark.parametrize("command", ["check-condition", "radius"])
    def test_viscosity_whose_square_is_zero_exits_2(self, tmp_path, capsys, command):
        # the condition's rho^2 coefficient divides by nu**2
        cfg = write_config(tmp_path, seeds="1", **{"params.nu": "1e-170"}, **self.NOISE_OFF)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not out.exists()

    def test_infinite_rho2_coefficient_is_refused(self, tmp_path, capsys):
        # nu**2 is subnormal, so the rho^2 coefficient 2 c_b^2 / nu**2 is inf
        # and inf * E_rho2 = inf * 0 is not a number
        cfg = write_config(tmp_path, seeds="1", **{"params.nu": "1e-160"}, **self.NOISE_OFF)
        out = tmp_path / "out"
        assert main(["check-condition", "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("experiment refused:") and err.count("\n") == 1
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["check-condition", "radius"])
    def test_tiny_viscosity_with_a_square_runs(self, tmp_path, command):
        overrides = {"params.nu": "1e-154", "time.t_end": "0.1", "time.burn": "0", **self.NOISE_OFF}
        cfg = write_config(tmp_path, seeds="1", **overrides)
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0


    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_viscosity_whose_square_overflows_exits_2(self, tmp_path, capsys, command):
        # nu * nu is inf: refused when parsed, before `float ** 2` can raise
        cfg = write_config(tmp_path, seeds="1", **{"params.nu": "1e300"})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: viscosity must have a finite, nonzero square, got 1e+300\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_huge_viscosity_with_a_finite_square_runs(self, tmp_path, command):
        overrides = {"params.nu": "1e154", "time.t_end": "0.1", "time.burn": "0"}
        cfg = write_config(tmp_path, seeds="1", **overrides)
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0


class TestWindowRefusals:
    # step counts whose series numpy cannot index: refused before numpy
    # computes the array shape, as one configuration error
    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("radius", {"rho.window": "1e300"}),
            ("check-condition", {"time.dt": "1e-300", "time.t_end": "1e-298", "time.burn": "0"}),
            # window / dt overflows to inf
            (
                "radius",
                {"time.dt": "1e-300", "time.t_end": "1e-298", "time.burn": "0", "rho.window": "1e300"},
            ),
            # burn + samples * gap steps is past the largest float
            ("check-condition", {"time.dt": "1e-307", "time.t_end": "1e-305", "time.burn": "0"}),
            # 5e16 steps: numpy can index the 4e17-byte series, but no x86-64
            # address space (at most 2^57 bytes) holds it, so nothing is allocated
            ("check-condition", {"mc.samples": "1000000000000000"}),
        ],
        ids=[
            "radius_window_1e300",
            "condition_gap_over_dt_1e-300",
            "radius_window_over_dt_inf",
            "condition_steps_over_float_max",
            "condition_series_past_memory",
        ],
    )
    def test_unindexable_window_exits_2(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, seeds="1", **overrides)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not any(out.iterdir())


class TestOneKernelPerCommand:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_builds_one_kernel(self, tmp_path, monkeypatch, command):
        # each command builds the run's kernel once, whatever its seeds (1,2)
        # and suites, and hands it to every experiment
        builds = []
        init = OUKernel.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(OUKernel, "__init__", counted)
        cfg = write_config(tmp_path)
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
        assert len(builds) == 1


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

    def test_validate_passes_without_noise(self, tmp_path, capsys):
        # with both noises off a mis-shifted stream drives the same run, so
        # the cocycle suite rests on the aligned run alone
        cfg = write_config(tmp_path, **{"noise.q1_amplitude": "0", "noise.q2_amplitude": "0"})
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--output", str(out)]) == 0
        payload = json.loads((out / "validate.json").read_text())
        (cocycle,) = (c for c in payload["checks"] if c["name"] == "cocycle flow property")
        assert payload["passed"] is True and cocycle["passed"] is True
        assert cocycle["detail"] == "aligned True, mis-shifted control does not apply without noise"
        assert "[FAIL]" not in capsys.readouterr().out

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

    def test_synchronize_round_off_collapse_exits_1(self, tmp_path):
        # both members round to one array in one step: distance 0 is not contraction
        overrides = {"noise.q1_amplitude": "1e156", "noise.q2_amplitude": "1e156"}
        cfg = write_config(tmp_path, seeds="1", **{"time.t_end": "0.02", "time.burn": "0"}, **overrides)
        out = tmp_path / "out"
        assert main(["synchronize", "--config", str(cfg), "--output", str(out)]) == 1
        payload = json.loads((out / "synchronize.json").read_text())
        assert payload["all_converged"] is False
        assert payload["per_seed"][0]["final_distance"] == 0.0

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
