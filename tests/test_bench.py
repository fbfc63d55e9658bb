import json
import math
import os

import numpy as np
import pytest
from helpers import assert_same_bytes

from smpx import checks, composite, solver
from smpx.bench import (
    ExperimentConfig,
    SummaryTable,
    _decode_array,
    _encode_array,
    build_instance_payload,
    canonical_json,
    fit_slope,
    generate_instance,
    load_payload,
    payload_to_instance,
    run_experiment,
    save_payload,
    summary_from_csv,
)
from smpx.errors import ConfigError, InputError, NumericalError

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        a = generate_instance("eig_min", {"n": 3, "blocks": [2, 2]}, 7, str(tmp_path / "a.json"))
        b = generate_instance("eig_min", {"n": 3, "blocks": [2, 2]}, 7, str(tmp_path / "b.json"))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_instance_payload("nope", {}, 0)

    def test_scalar_minimax_records_saddle(self):
        payload = build_instance_payload("scalar_minimax", {"scalars": [1.0, 3.0]}, 0)
        assert payload["meta"]["opt"] == 1.0
        assert payload["meta"]["x_star"] == [1.0, 0.0]

    def test_eig_metadata_matches_decoded_instance(self):
        payload = build_instance_payload("eig_min", {"n": 4, "blocks": [3, 2]}, 9)
        _, inst = payload_to_instance(payload)
        assert payload["meta"]["a_inf"] == pytest.approx(inst.a_inf)

    def test_sdf_designated_point_feasible(self):
        payload = build_instance_payload(
            "sdf_system", {"n": 5, "blocks": [3, 3, 3], "delta": 0.1}, 3
        )
        _, sys_ = payload_to_instance(payload)
        x_star = np.asarray(payload["meta"]["x_star"])
        viol = composite.component_violations(sys_, x_star)
        assert np.all(viol <= -0.1 + 1e-9)

    def test_alias_kind_round_trips(self):
        payload = build_instance_payload(
            "bilinear_simplex_spectahedron", {"n": 4, "blocks": [2, 2]}, 1
        )
        family, inst = payload_to_instance(payload)
        assert family == "eig"
        assert inst.n == 4

    def test_payload_file_round_trip(self, tmp_path):
        path = str(tmp_path / "inst.json")
        generate_instance("sdf_system", {"n": 4, "blocks": [2, 2]}, 5, path)
        payload = load_payload(path)
        again = str(tmp_path / "again.json")
        with open(again, "w") as fh:
            fh.write(canonical_json(payload))
        assert open(path, "rb").read() == open(again, "rb").read()


SPECIAL = np.array([-0.0, 5e-324])  # a signed zero and the smallest subnormal

# kind -> (params, seed) of the version-1 files in tests/data, which the
# decimal-list encoder that version 2 replaced wrote
V1_FILES = {
    "eig_min": ({"n": 3, "blocks": [2, 1]}, 7),
    "scalar_minimax": ({"n": 3}, 2),
    "sdf_system": ({"n": 3, "blocks": [2, 2]}, 5),
}


def special_payload(kind):
    """A payload whose data holds SPECIAL, and the decoded array holding it."""
    if kind == "scalar_minimax":
        payload = build_instance_payload(kind, {"scalars": [*SPECIAL, 0.5]}, 0)
        return payload, lambda obj: np.array([m.stacks[0][0, 0, 0] for m in obj.mats[:2]])
    if kind == "eig_min":
        payload = build_instance_payload(kind, {"n": 3, "blocks": [2, 3]}, 4)
        a0 = _decode_array(payload["a0"], (13,)).copy()
        a0[[0, 3]] = SPECIAL  # the diagonal of the first block
        payload["a0"] = _encode_array(a0)
        return payload, lambda obj: np.diagonal(obj.a0.stacks[0][0])
    payload = build_instance_payload(kind, {"n": 3, "blocks": [2, 3]}, 4)
    comp = payload["components"][0]  # the quadratic one; b0 is not validated
    comp["b0"] = _encode_array(SPECIAL, np.zeros(2))
    return payload, lambda obj: obj.parts[0].component.b0[0]


class TestInstanceFormat:
    def test_array_encoding_keeps_every_bit(self):
        x = np.array([[-0.0, 5e-324, -5e-324], [0.1, 1e308, -2.5]])
        assert_same_bytes(_decode_array(_encode_array(x), x.shape), x)
        assert_same_bytes(_decode_array(x.tolist(), x.shape), x)  # version-1 lists
        with pytest.raises(AssertionError):
            assert_same_bytes(np.array([-0.0]), np.array([0.0]))

    @pytest.mark.parametrize("kind", ["eig_min", "scalar_minimax", "sdf_system"])
    def test_file_round_trip_is_bit_exact(self, kind, tmp_path):
        payload, special = special_payload(kind)
        path = save_payload(str(tmp_path / "inst.json"), payload)
        loaded = load_payload(path)
        assert loaded["version"] == 2
        _, direct = payload_to_instance(payload)
        _, again = payload_to_instance(loaded)
        assert_same_bytes(special(again), SPECIAL)
        arrays = checks.instance_arrays(again)
        assert arrays
        for a, b in zip(arrays, checks.instance_arrays(direct), strict=True):
            assert_same_bytes(a, b)

    @pytest.mark.parametrize("kind", sorted(V1_FILES))
    def test_version_1_file_decodes_like_version_2(self, kind, tmp_path):
        params, seed = V1_FILES[kind]
        old = load_payload(os.path.join(DATA, f"v1_{kind}.json"))
        assert old["version"] == 1
        path = generate_instance(kind, params, seed, str(tmp_path / "v2.json"))
        new = load_payload(path)
        assert new["meta"] == old["meta"]
        family_old, inst_old = payload_to_instance(old)
        family_new, inst_new = payload_to_instance(new)
        assert family_old == family_new
        pairs = zip(checks.instance_arrays(inst_old), checks.instance_arrays(inst_new),
                    strict=True)
        for a, b in pairs:
            assert_same_bytes(a, b)

    @pytest.mark.parametrize("cut", [1, 4, 12])
    def test_truncated_array_rejected(self, cut, tmp_path):
        payload = build_instance_payload("eig_min", {"n": 3, "blocks": [2, 2]}, 1)
        payload["a"] = payload["a"][:-cut]
        path = save_payload(str(tmp_path / "cut.json"), payload)
        with pytest.raises(InputError):
            payload_to_instance(load_payload(path))

    def test_array_of_the_wrong_shape_rejected(self):
        payload = build_instance_payload("eig_min", {"n": 3, "blocks": [2, 2]}, 1)
        payload["n"] = 4
        with pytest.raises(InputError):
            payload_to_instance(payload)
        with pytest.raises(InputError):
            _decode_array("not base64!", (1,))

    def test_wrong_a_inf_rejected(self, tmp_path):
        payload = build_instance_payload("eig_min", {"n": 3, "blocks": [2, 2]}, 1)
        payload["meta"]["a_inf"] *= 1.01
        path = save_payload(str(tmp_path / "wrong.json"), payload)
        with pytest.raises(InputError):
            payload_to_instance(load_payload(path))
        del payload["meta"]["a_inf"]  # nothing declared, nothing to compare
        payload_to_instance(payload)

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_unknown_version_rejected(self, version, tmp_path):
        payload = build_instance_payload("eig_min", {"n": 3, "blocks": [2, 2]}, 1)
        payload["version"] = version
        path = save_payload(str(tmp_path / "v.json"), payload)
        with pytest.raises(InputError):
            load_payload(path)


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"instance": {}, "bogus": 1})

    def test_missing_instance_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"solver": "smp"})

    def test_empty_checkpoints_rejected(self):
        cfg = ExperimentConfig(instance={}, checkpoints=[])
        with pytest.raises(ConfigError):
            cfg.checkpoint_list(10)

    def test_bad_solver_rejected(self):
        cfg = ExperimentConfig(instance={}, solver="downhill")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_seed_expansion(self):
        cfg = ExperimentConfig(instance={}, seed_count=3, seed_base=5)
        assert cfg.seed_list() == [5, 6, 7]


def tiny_config(**over):
    cfg = {
        "instance": {"kind": "eig_min", "params": {"n": 4, "blocks": [2, 2]}, "seed": 5},
        "solver": "smp",
        "t": 32,
        "oracle": "sampled",
        "seeds": [0, 1],
        "checkpoints": "geometric",
        "n_probes": 8,
    }
    cfg.update(over)
    return cfg


class TestRunExperiment:
    def test_byte_identical_outputs(self, tmp_path):
        assert checks.reproducibility_ok(str(tmp_path))

    def test_csv_schema(self, tmp_path):
        cfg = tiny_config(out=str(tmp_path / "r"))
        _, _, files = run_experiment(cfg)
        lines = open(files["csv"]).read().splitlines()
        assert lines[0] == "seed,t_checkpoint,err_nash,err_vi_probe,gamma,oracle_calls,wall_ms"
        assert len(lines) == 1 + 2 * 6  # 2 seeds x checkpoints {1,2,4,8,16,32}
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert int(first[5]) == 2  # two oracle calls by the first checkpoint

    def test_sidecar_enables_rerun(self, tmp_path):
        cfg = tiny_config(out=str(tmp_path / "r"))
        _, _, files = run_experiment(cfg)
        sidecar = json.load(open(files["json"]))
        echo = sidecar["config"]
        echo["out"] = str(tmp_path / "r2")
        _, _, files2 = run_experiment(echo)
        a = open(files["csv"]).read()
        b = open(files2["csv"]).read()
        assert a == b

    def test_records_and_summary_shape(self):
        records, summary, files = run_experiment(tiny_config())
        assert files == {}
        assert sorted(records) == [0, 1]
        assert summary.t_values == [1, 2, 4, 8, 16, 32]
        assert set(summary.stats) == {"err_nash", "err_vi_probe"}
        for stat in summary.stats["err_nash"].values():
            assert len(stat) == 6
        q10 = np.asarray(summary.stats["err_nash"]["q10"])
        q90 = np.asarray(summary.stats["err_nash"]["q90"])
        assert np.all(q10 <= q90 + 1e-15)

    def test_multi_horizon_rows(self):
        cfg = tiny_config(t=[32, 8], checkpoints="final")
        _, summary, _ = run_experiment(cfg)
        assert summary.t_values == [8, 32]  # sorted regardless of input order
        gammas = [b["gamma"] for b in summary.bounds]
        assert gammas[0] != gammas[1]  # stepsize retuned per horizon

    def test_sweep_requires_final_checkpoints(self):
        cfg = tiny_config(t=[8, 32], checkpoints="geometric")
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_explicit_infeasible_gamma_rejected(self):
        cfg = tiny_config(stepsize=10.0)
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    @pytest.mark.parametrize("method", ["smp", "rmsa"])
    def test_explicit_stepsize_skips_the_auto_rule(self, method):
        # all data zero: L = M = 0, so the auto rule has no stepsize to give
        zero = {"kind": "eig_min", "params": {"n": 4, "blocks": [2, 2], "scale": 0.0}, "seed": 2}
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(instance=zero, solver=method))
        records, summary, _ = run_experiment(
            tiny_config(instance=zero, solver=method, stepsize=0.1)
        )
        assert [b["gamma"] for b in summary.bounds] == [0.1] * 6
        assert records[1][0].t == 32

    def test_sdf_bound_rows_use_the_run_horizon(self):
        cfg = {
            "instance": {
                "kind": "sdf_system",
                "params": {"n": 4, "blocks": [2, 2], "delta": 0.1},
                "seed": 3,
            },
            "t": 64,
            "seeds": [0],
            "checkpoints": "geometric",
            "n_probes": 5,
        }
        _, summary, _ = run_experiment(cfg)
        _, system = payload_to_instance(
            build_instance_payload("sdf_system", cfg["instance"]["params"], 3)
        )
        scaled = composite.sdf_scale(system, 64)
        r = math.sqrt(2.0)  # the product setup's radius
        assert [b["t"] for b in summary.bounds] == [1, 2, 4, 8, 16, 32, 64]
        for row in summary.bounds:
            expected = solver.theoretical_bounds(
                1.0, r, scaled.lip_l, scaled.noise_m, 0.0, row["t"]
            )
            assert_same_bytes(np.array([row["k0_star"], row["k1_star"]]), np.array(expected))

    def test_rmsa_oracle_call_accounting(self):
        cfg = tiny_config(solver="rmsa")
        records, summary, _ = run_experiment(cfg)
        assert records[0][0].oracle_calls == 32

    def test_sdf_experiment_columns(self):
        cfg = {
            "instance": {
                "kind": "sdf_system",
                "params": {"n": 4, "blocks": [2, 2], "delta": 0.0, "noise_m": 0.5},
                "seed": 3,
            },
            "solver": "smp",
            "t": 16,
            "oracle": "sampled",
            "seeds": [0],
            "checkpoints": "final",
            "n_probes": 5,
        }
        _, summary, _ = run_experiment(cfg)
        assert {"viol_0", "viol_1", "excess_0", "err_nash"} <= set(summary.stats)


def synthetic_summary(curve, n_seeds=5, noise=0.0):
    ts = [100, 316, 1000, 3162, 10000]
    rows = np.array([curve(t) for t in ts])
    per_seed = np.tile(rows, (n_seeds, 1))
    if noise:
        rng = np.random.default_rng(0)
        per_seed = per_seed * np.exp(noise * rng.standard_normal(per_seed.shape))
    stats = {
        "err_nash": {
            "mean": per_seed.mean(axis=0).tolist(),
            "median": np.median(per_seed, axis=0).tolist(),
            "q10": np.quantile(per_seed, 0.1, axis=0).tolist(),
            "q90": np.quantile(per_seed, 0.9, axis=0).tolist(),
        }
    }
    return SummaryTable(
        seeds=list(range(n_seeds)),
        t_values=ts,
        per_seed={"err_nash": per_seed},
        stats=stats,
        bounds=[{"t": t} for t in ts],
    )


class TestFitSlope:
    def test_exact_inverse_t(self):
        summary = synthetic_summary(lambda t: 3.0 / t)
        slope, ci = fit_slope(summary, (100, 10000))
        assert slope == pytest.approx(-1.0, abs=1e-9)
        assert ci[0] <= slope <= ci[1]

    def test_exact_inverse_sqrt_t(self):
        summary = synthetic_summary(lambda t: 5.0 / np.sqrt(t))
        slope, _ = fit_slope(summary, (100, 10000))
        assert slope == pytest.approx(-0.5, abs=1e-9)

    def test_range_too_small_rejected(self):
        summary = synthetic_summary(lambda t: 1.0 / t)
        with pytest.raises(InputError):
            fit_slope(summary, (100, 500))

    def test_degenerate_data_flagged(self):
        summary = synthetic_summary(lambda t: 0.0)
        with pytest.raises(NumericalError):
            fit_slope(summary, (100, 10000))

    def test_bootstrap_ci_brackets_noisy_slope(self):
        summary = synthetic_summary(lambda t: 3.0 / t, n_seeds=12, noise=0.3)
        slope, ci = fit_slope(summary, (100, 10000))
        assert ci[0] <= slope <= ci[1]
        assert ci[1] - ci[0] > 0.0

    def test_csv_round_trip(self, tmp_path):
        cfg = tiny_config(out=str(tmp_path / "r"), t=64)
        _, summary, files = run_experiment(cfg)
        rebuilt = summary_from_csv(files["csv"])
        assert rebuilt.t_values == summary.t_values
        direct = fit_slope(summary, (4, 64))
        again = fit_slope(rebuilt, (4, 64))
        assert direct[0] == pytest.approx(again[0])
