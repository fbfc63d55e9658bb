import json
import math
import os
import warnings

import numpy as np
import pytest
from helpers import (
    V3_BASE,
    V3_DEFECTS,
    assert_same_bytes,
    ref_eig_payload,
    v3_parts,
    write_v3,
    write_v3_defect,
)

from smpx import bench, checks, composite, solver, vi
from smpx.bench import (
    ExperimentConfig,
    SummaryTable,
    _column_stats,
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
from smpx.symmat import BlockStructure, BlockSymMatrix

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class TestGenerate:
    @pytest.mark.parametrize("kind, params", [
        ("eig_min", {"n": 5, "blocks": [2, 3, 2, 1]}),
        ("eig_min", {"n": 3, "blocks": [1, 1], "scale": 2.5}),
        ("eig_min", {"n": 2, "blocks": [32, 32, 32, 32]}),
        ("bilinear_simplex_spectahedron", {"n": 20, "blocks": [4, 4, 4]}),
        ("bilinear_simplex_spectahedron", {"n": 4, "blocks": [3, 1, 5, 1, 3], "scale": 0.5}),
    ], ids=lambda v: str(v).replace(" ", ""))
    def test_eig_payload_equals_per_block_generator(self, kind, params):
        # one draw and one pass per size group give the per-block bytes
        for seed in (0, 9):
            got = canonical_json(build_instance_payload(kind, params, seed))
            assert got == canonical_json(ref_eig_payload(kind, params, seed))

    def test_deterministic_bytes(self, tmp_path):
        a = generate_instance("eig_min", {"n": 3, "blocks": [2, 2]}, 7, str(tmp_path / "a.json"))
        b = generate_instance("eig_min", {"n": 3, "blocks": [2, 2]}, 7, str(tmp_path / "b.json"))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_instance_payload("nope", {}, 0)

    @pytest.mark.parametrize("kind, params", [
        ("eig_min", {"n": "x"}), ("eig_min", {"blocks": 3}), ("sdf_system", {"delta": "0.1"}),
        ("scalar_minimax", {"scalars": [1.0, "3"]}), ("eig_min", ["n", 3]),
    ])
    def test_non_numeric_param_rejected(self, kind, params):
        with pytest.raises(ConfigError):
            build_instance_payload(kind, params, 0)

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
        # a loaded file, written again, gives the generator's bytes
        for kind in ("eig_min", "sdf_system"):
            path = str(tmp_path / f"{kind}.json")
            generate_instance(kind, {"n": 4, "blocks": [2, 2]}, 5, path)
            again = save_payload(str(tmp_path / "again.json"), load_payload(path))
            assert open(path, "rb").read() == open(again, "rb").read()


SPECIAL = np.array([-0.0, 5e-324])  # a signed zero and the smallest subnormal

# kind -> (params, seed) of the version-1 and version-2 files in
# tests/data: v1_* written by the decimal-list encoder that version 2
# replaced, v2_* by the base64 JSON writer that version 3 replaced
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
        assert open(path, "rb").read(len(bench._MAGIC)) == bench._MAGIC
        loaded = load_payload(path)
        assert loaded["version"] == 3
        _, direct = payload_to_instance(payload)
        _, again = payload_to_instance(loaded)
        assert_same_bytes(special(again), SPECIAL)
        arrays = checks.instance_arrays(again)
        assert arrays
        for a, b in zip(arrays, checks.instance_arrays(direct), strict=True):
            assert_same_bytes(a, b)

    @pytest.mark.parametrize("kind", sorted(V1_FILES))
    def test_version_1_file_decodes_like_version_2(self, kind, tmp_path):
        # the v1 and v2 files and a fresh v3 file of one generator call
        # decode to the same bytes
        params, seed = V1_FILES[kind]
        path = generate_instance(kind, params, seed, str(tmp_path / "v3.json"))
        payloads = [load_payload(os.path.join(DATA, f"v{v}_{kind}.json")) for v in (1, 2)]
        payloads.append(load_payload(path))
        assert [p["version"] for p in payloads] == [1, 2, 3]
        new = payloads[-1]
        family_new, inst_new = payload_to_instance(new)
        for old in payloads[:-1]:
            assert new["meta"] == old["meta"]
            family_old, inst_old = payload_to_instance(old)
            assert family_old == family_new
            pairs = zip(checks.instance_arrays(inst_old), checks.instance_arrays(inst_new),
                        strict=True)
            for a, b in pairs:
                assert_same_bytes(a, b)

    @pytest.mark.parametrize("cut", [1, 4, 12])
    def test_truncated_array_rejected(self, cut, tmp_path):
        # a version-2 file; the writer of version 3 refuses a short array
        payload = build_instance_payload("eig_min", {"n": 3, "blocks": [2, 2]}, 1)
        payload["a"] = payload["a"][:-cut]
        with pytest.raises(InputError, match="instance field 'a'"):
            save_payload(str(tmp_path / "cut.bin"), payload)
        payload["version"] = 2
        path = str(tmp_path / "cut.json")
        with open(path, "w") as fh:
            fh.write(canonical_json(payload))
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

    @pytest.mark.parametrize("version", [0, 4, "2", None, True, 2.0])
    def test_unknown_version_rejected(self, version, tmp_path):
        # in a version-3 header and in a JSON file
        path = generate_instance(*V3_BASE, str(tmp_path / "v.bin"))
        header, data = v3_parts(path)
        write_v3(path, dict(header, version=version), data)
        payload = build_instance_payload(*V3_BASE)
        payload["version"] = version
        json_path = tmp_path / "v.json"
        json_path.write_text(canonical_json(payload))
        for p in (path, str(json_path)):
            with pytest.raises(InputError, match="unknown instance format version"):
                load_payload(p)

    def test_saved_version_2_payload_loads_as_version_3(self, tmp_path):
        old = load_payload(os.path.join(DATA, "v2_eig_min.json"))
        path = save_payload(str(tmp_path / "v3.bin"), old)
        new = load_payload(path)
        assert new["version"] == 3
        pairs = zip(checks.instance_arrays(payload_to_instance(old)[1]),
                    checks.instance_arrays(payload_to_instance(new)[1]), strict=True)
        for a, b in pairs:
            assert_same_bytes(a, b)


class TestVersion3File:
    """Malformed version-3 files raise an InputError naming what is wrong."""

    @pytest.mark.parametrize("defect", sorted(V3_DEFECTS))
    def test_defect_rejected(self, defect, tmp_path):
        path = str(tmp_path / "inst.json")
        pattern = write_v3_defect(path, defect)
        with pytest.raises(InputError, match=pattern):
            payload_to_instance(load_payload(path))

    @pytest.mark.parametrize("defect", ["count-past-the-file", "count-larger-than-the-file"])
    def test_count_checked_before_the_arrays_are_allocated(self, defect, tmp_path,
                                                           monkeypatch):
        path = str(tmp_path / "inst.json")
        pattern = write_v3_defect(path, defect)

        def refuse(*args, **kwargs):
            raise AssertionError("array allocated before the count was checked")
        monkeypatch.setattr(bench.np, "empty", refuse)
        with pytest.raises(InputError, match=pattern):
            load_payload(path)

    def test_arrays_are_read_only_and_exact(self, tmp_path):
        path = generate_instance(*V3_BASE, str(tmp_path / "inst.bin"))
        payload, data = load_payload(path), v3_parts(path)[1]
        for name, shape in (("a", (3, 8)), ("a0", (1, 8))):
            assert payload[name].shape == shape and not payload[name].flags.writeable
        assert payload["a"].tobytes() + payload["a0"].tobytes() == data

    def test_recognised_by_content_not_name(self, tmp_path):
        # a version-3 file under a .json name, a version-2 file under another
        v3 = generate_instance(*V3_BASE, str(tmp_path / "inst.json"))
        v2 = str(tmp_path / "inst.smpx")
        with open(os.path.join(DATA, "v2_eig_min.json"), "rb") as src, open(v2, "wb") as dst:
            dst.write(src.read())
        assert load_payload(v3)["version"] == 3
        assert load_payload(v2)["version"] == 2

    def test_json_file_of_version_3_rejected(self, tmp_path):
        # version 3 is the binary layout only
        path = str(tmp_path / "v3.json")
        with open(path, "w") as fh:
            fh.write(canonical_json(build_instance_payload(*V3_BASE)))
        with pytest.raises(InputError, match="unknown instance format version 3"):
            load_payload(path)


def perturbed_eig_payload(sizes, n, seed, delta):
    """An eig payload whose data matrices carry `delta` times a random
    asymmetric perturbation, and the perturbed (n, sum p^2) rows."""
    payload = build_instance_payload("eig_min", {"n": n, "blocks": sizes}, seed)
    flat = _decode_array(payload["a"], (n, sum(p * p for p in sizes))).copy()
    flat += delta * np.random.default_rng(seed).standard_normal(flat.shape)
    payload["a"] = _encode_array(flat)
    payload["meta"].pop("a_inf")
    return payload, flat


class TestStackedDecode:
    """The data matrices decode into one checked, symmetrized stack per size
    group, as the per-matrix ``BlockSymMatrix`` construction makes them."""

    @pytest.mark.parametrize("budget", [1, 40, bench._SLICE_BUDGET])
    def test_stacks_equal_per_matrix_construction(self, budget, monkeypatch):
        # the blocks are symmetric to within the tolerance, not exactly, so
        # the symmetrization changes bytes; the field is decoded whole, and a
        # small budget checks and symmetrizes one matrix (budget 1) or a few
        # (budget 40) per slice
        monkeypatch.setattr(bench, "_SLICE_BUDGET", budget)
        sizes = [3, 1, 2, 3, 1]
        structure = BlockStructure(sizes)
        payload, flat = perturbed_eig_payload(sizes, 9, 3, 1e-14)
        _, inst = payload_to_instance(payload)
        for j, row in enumerate(flat):
            blocks, k = [], 0
            for p in sizes:
                blocks.append(row[k:k + p * p].reshape(p, p))
                k += p * p
            ref = BlockSymMatrix(structure, blocks)
            for s, t in zip(inst.mats[j].stacks, ref.stacks, strict=True):
                assert_same_bytes(s, t)
        for s in inst.stacks:
            assert not s.flags.writeable

    @pytest.mark.parametrize("budget", [1, bench._SLICE_BUDGET])
    @pytest.mark.parametrize("defect, message", [
        ("nan", "non-finite entries in block"), ("inf", "non-finite entries in block"),
        ("asymmetric", "not symmetric within tolerance"),
    ])
    def test_defective_matrix_rejected(self, budget, defect, message, monkeypatch):
        monkeypatch.setattr(bench, "_SLICE_BUDGET", budget)
        payload, flat = perturbed_eig_payload([2, 3, 2], 6, 4, 0.0)
        # an off-diagonal entry of the 3 x 3 block of the last matrix
        flat[-1, 4 + 1] = {"nan": np.nan, "inf": -np.inf, "asymmetric": flat[-1, 4 + 1] + 1e-6}[
            defect]
        payload["a"] = _encode_array(flat)
        with pytest.raises(InputError, match=message):
            payload_to_instance(payload)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda t: t[:-4], id="a-quad-short"),
        pytest.param(lambda t: t + "AAAA", id="a-quad-long"),
        pytest.param(lambda t: t[:540] + "====" + t[544:], id="padding-ending-a-slice"),
        pytest.param(lambda t: t[:600] + "*" + t[601:], id="non-base64-in-a-later-slice"),
        pytest.param(lambda t: t[:-9] + "\u00e9" + t[-8:], id="non-ascii-in-the-last-slice"),
    ])
    def test_malformed_text_reported_as_by_the_whole_decode(self, corrupt, monkeypatch):
        # the field is decoded whole, whatever the symmetrize slices, so the
        # InputError is the one that decoding the whole text raises; the ids
        # name where a sliced decode of 3 rows (544 base64 characters) a
        # slice would cut the text
        monkeypatch.setattr(bench, "_SLICE_BUDGET", 1)
        payload, flat = perturbed_eig_payload([2, 3, 2], 7, 4, 0.0)
        payload["a"] = corrupt(payload["a"])
        with pytest.raises(InputError) as whole:
            _decode_array(payload["a"], flat.shape, "instance field 'a'")
        with pytest.raises(InputError) as sliced:
            payload_to_instance(payload)
        assert str(sliced.value) == str(whole.value)

    @pytest.mark.parametrize("n", [-1, 10**15])
    def test_count_checked_before_the_stacks_are_allocated(self, n):
        payload, _ = perturbed_eig_payload([2, 3, 2], 7, 4, 0.0)
        payload["n"] = n
        with pytest.raises(InputError, match="instance field 'a' holds"):
            payload_to_instance(payload)


@pytest.mark.parametrize("seed", range(4))
def test_column_stats_equal_nan_functions(seed):
    # 1-11 seeds, ties, signed zeros, infinities, and rows (columns of the
    # matrix) that are partly or wholly NaN: the stats of a matrix with no
    # NaN take the plain functions, and both paths have the nan-functions'
    # bytes
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, 1e-300])
    for _ in range(400):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 6)))
        kind = rng.random()
        if kind < 0.5:  # mostly signed zeros: where the sign of a quantile shows
            mat = rng.choice(pool[:4], size=shape)
        elif kind < 0.75:
            mat = rng.choice(pool, size=shape)
        else:
            mat = rng.standard_normal(shape)
            mat[rng.random(shape) < 0.3] = rng.choice(pool)
        if rng.random() < 0.3:
            mat[rng.random(shape) < 0.3] = np.nan
            mat[:, int(rng.integers(shape[1]))] = np.nan if rng.random() < 0.5 else mat[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN rows
            got = _column_stats(mat)
            want = {
                "mean": np.nanmean(mat, axis=0), "median": np.nanmedian(mat, axis=0),
                "q10": np.nanquantile(mat, 0.1, axis=0), "q90": np.nanquantile(mat, 0.9, axis=0),
            }
        assert list(got) == list(want)
        for key, values in want.items():
            assert_same_bytes(np.array(got[key]), values)


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


def test_sdf_sweep_probe_sets_equal_default_probes(monkeypatch):
    # the sweep draws one probe family for all horizons; each horizon's
    # probe set holds the bytes of the problem's own default probe set
    payload = build_instance_payload(
        "sdf_system", {"n": 5, "blocks": [3, 1, 3], "n_smooth": 1}, 4)
    _, system = payload_to_instance(payload)
    cfg = ExperimentConfig(instance={}, t=[16, 64, 256], checkpoints="final",
                           n_probes=70, probe_seed=3)
    built = []

    class RecordedProbeSet(vi.ProbeSet):
        def __init__(self, problem, probes):
            super().__init__(problem, probes)
            built.append((problem, self))

    monkeypatch.setattr(vi, "ProbeSet", RecordedProbeSet)
    plans, _, _ = bench._sdf_plans(cfg, system, cfg.horizons())
    monkeypatch.undo()
    assert [problem for problem, _ in built] == [plans[t].problem for t in cfg.horizons()]
    for problem, probes in built:
        ref = vi.default_probes(problem, 3, 70)
        assert len(probes) == len(ref)
        for (rows, c), (ref_rows, ref_c) in zip(probes.chunks, ref.chunks, strict=True):
            for a, b in zip(rows, ref_rows, strict=True):
                assert_same_bytes(a, b)
            assert_same_bytes(c, ref_c)


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
