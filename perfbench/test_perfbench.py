"""Tests of the benchmark's own code: span arithmetic, wrapper restoration, inputs, names."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_on_nested_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(spans.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])

    keys = ["cli.main", "operators.bilinear_b", "fields.Field.__init__"]
    summary = spans.summarize(keys, np.array([0, 1, 2, 1]), parent, start, end)
    assert summary["keys"]["operators.bilinear_b"] == {"calls": 2, "incl_s": 7.0, "self_s": 6.0}
    assert summary["layer_self_s"] == {"cli": 3.0, "operators": 6.0, "fields": 1.0}


def _bindings(modules):
    """Every (owner, name) -> object that the tracer may patch."""
    out = {}
    for module in modules.values():
        for name, obj in vars(module).items():
            out[(module.__name__, name)] = obj
    for layer, cls_name, attr in spans.CLASS_METHODS:
        cls = getattr(modules[layer], cls_name)
        out[(cls.__qualname__, attr)] = vars(cls)[attr]
    return out


def test_tracer_records_spans_and_restores_every_binding():
    import qgsync
    from qgsync import analysis, cli, config, dynamics, fields, noise, operators

    modules = {
        "fields": fields, "operators": operators, "noise": noise, "dynamics": dynamics,
        "analysis": analysis, "config": config, "cli": cli, "qgsync": qgsync,
    }
    before = _bindings(modules)
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        # a name imported into several modules is wrapped at each of them
        for module in (operators, dynamics, cli, qgsync):
            assert module.bilinear_b is not before[(operators.__name__, "bilinear_b")]
        assert fields.coeffs_from_nodal is not before[(fields.__name__, "coeffs_from_nodal")]
        assert operators.coeffs_from_nodal is fields.coeffs_from_nodal

        grid = fields.GridSpec(8)
        mask = fields.retained_mask(grid, fields.Basis.NEUMANN_COSINE)
        f = fields.Field(grid, fields.Basis.NEUMANN_COSINE, coeffs=np.ones(grid.shape) * mask)
        dynamics.bilinear_b(f, f)
        noise.NoiseStream(seed=3, dt=0.1).normals(0, 5)
    finally:
        tracer.restore()

    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    summary = spans.summarize(*tracer.spans())
    calls = {k: v["calls"] for k, v in summary["keys"].items()}
    assert calls["operators.bilinear_b"] == 1
    assert calls["operators.dirichlet_poisson"] == 1
    assert calls["noise.NoiseStream.normals"] == 1
    assert tracer.normals_drawn == 5
    assert calls["fields.Field.__init__"] >= 3


def test_same_seed_gives_same_configs(tmp_path):
    from qgsync.config import parse_config

    for workload, spec in run.WORKLOADS.items():
        text = run.make_config(workload, 7)
        assert text == run.make_config(workload, 7)
        assert text != run.make_config(workload, 8)
        path = tmp_path / f"{workload}.cfg"
        path.write_text(text)
        cfg = parse_config(path)
        assert len(set(cfg.seeds)) == spec["seeds"]


def test_non_json_tokens_fail_the_output_check(tmp_path):
    (tmp_path / "simulate_seed1.json").write_text('{"final_z_l2": NaN, "steps": 5}\n')
    cfg = {"n_seeds": 1, "t_end": 0.05, "dt": 0.001}
    with pytest.raises(run.RunFailed, match="not strict JSON"):
        run.check_outputs("fine-grid", tmp_path, 0, cfg)
    with pytest.raises(run.RunFailed, match="exited with 1"):
        run.check_outputs("fine-grid", tmp_path, 1, cfg)


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
