import csv
import json
import math

import pytest

from smpx import bench
from smpx.cli import main

RUN = ["run", "--kind", "eig_min", "--n", "4", "--t", "8", "--seeds", "0"]


def exits_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.fixture
def no_instance(monkeypatch):
    """Fail the test if the run gets as far as building its instance."""
    def refuse(cfg):
        raise AssertionError("instance built before the config was rejected")
    monkeypatch.setattr(bench, "_resolve_instance", refuse)


class TestGenerateCommand:
    def test_writes_instance(self, tmp_path, capsys):
        out = str(tmp_path / "inst.json")
        code = main(
            ["generate", "--kind", "eig_min", "--n", "4", "--blocks", "2,2",
             "--seed", "3", "--out", out]
        )
        assert code == 0
        payload = json.load(open(out))
        assert payload["kind"] == "eig_min"
        assert payload["n"] == 4

    def test_bad_kind_exits_2(self, tmp_path):
        code = main(
            ["generate", "--kind", "eig_min", "--n", "0", "--out",
             str(tmp_path / "x.json")]
        )
        assert code == 2


class TestRunCommand:
    def test_run_from_instance_file(self, tmp_path, capsys):
        inst = str(tmp_path / "inst.json")
        main(["generate", "--kind", "eig_min", "--n", "4", "--blocks", "2,2",
              "--seed", "3", "--out", inst])
        out = str(tmp_path / "exp")
        code = main(
            ["run", "--instance", inst, "--t", "32", "--solver", "smp",
             "--oracle", "sampled", "--seeds", "0,1", "--checkpoints",
             "geometric", "--out", out]
        )
        assert code == 0
        header = open(out + ".csv").readline().strip()
        assert header.startswith("seed,t_checkpoint,err_nash")

    def test_run_from_config_file(self, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(
            {
                "instance": {"kind": "eig_min",
                             "params": {"n": 4, "blocks": [2, 2]}, "seed": 1},
                "t": 16,
                "seeds": [0],
                "checkpoints": "final",
                "n_probes": 5,
                "out": str(tmp_path / "exp"),
            },
            open(cfg_path, "w"),
        )
        assert main(["run", "--config", cfg_path]) == 0

    def test_flag_overrides_config(self, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(
            {
                "instance": {"kind": "eig_min",
                             "params": {"n": 4, "blocks": [2, 2]}, "seed": 1},
                "t": 16,
                "seeds": [0],
                "checkpoints": "final",
                "n_probes": 5,
            },
            open(cfg_path, "w"),
        )
        out = str(tmp_path / "exp")
        assert main(["run", "--config", cfg_path, "--t", "8", "--out", out]) == 0
        rows = open(out + ".csv").read().splitlines()[1:]
        assert all(r.split(",")[1] == "8" for r in rows)

    def test_instance_with_wrong_a_inf_exits_2(self, tmp_path):
        inst = str(tmp_path / "inst.json")
        main(["generate", "--kind", "eig_min", "--n", "4", "--blocks", "2,2",
              "--seed", "3", "--out", inst])
        payload = json.load(open(inst))
        payload["meta"]["a_inf"] *= 1.01
        json.dump(payload, open(inst, "w"))
        code = main(["run", "--instance", inst, "--t", "8", "--seeds", "0",
                     "--out", str(tmp_path / "e")])
        assert code == 2

    def test_missing_instance_exits_2(self):
        assert main(["run", "--t", "8"]) == 2

    def test_instance_file_not_found_exits_2(self, tmp_path):
        assert main(["run", "--instance", str(tmp_path / "missing.json"), "--t", "8"]) == 2

    def test_truncated_instance_file_exits_2(self, tmp_path):
        inst = tmp_path / "inst.json"
        main(["generate", "--kind", "eig_min", "--n", "4", "--blocks", "2,2",
              "--seed", "3", "--out", str(inst)])
        text = inst.read_text()
        inst.write_text(text[: len(text) // 2])
        assert main(["run", "--instance", str(inst), "--t", "8"]) == 2

    def test_large_rmsa_stepsize_runs_to_completion(self, tmp_path):
        # one dual step here underflows an eigenvalue of the iterate to 0
        out = str(tmp_path / "big")
        code = main(["run", "--kind", "eig_min", "--gen-seed", "7", "--n", "20",
                     "--blocks", "4,4,4", "--solver", "rmsa", "--gamma", "5",
                     "--t", "2000", "--seed-count", "2", "--checkpoints", "final",
                     "--out", out])
        assert code == 0
        with open(out + ".csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(math.isfinite(float(r["err_nash"])) for r in rows)

    def test_infeasible_gamma_exits_2(self, tmp_path):
        inst = str(tmp_path / "inst.json")
        main(["generate", "--kind", "eig_min", "--n", "4", "--blocks", "2,2",
              "--seed", "3", "--out", inst])
        code = main(
            ["run", "--instance", inst, "--t", "8", "--gamma", "99.0",
             "--seeds", "0", "--out", str(tmp_path / "e")]
        )
        assert code == 2


class TestBadInputExits2:
    def test_config_file_not_found(self, tmp_path, capsys):
        exits_2_with_one_line(capsys, ["run", "--config", str(tmp_path / "missing.json")])

    def test_truncated_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"instance": {"kind": "eig_min"')
        exits_2_with_one_line(capsys, ["run", "--config", str(cfg)])

    def test_config_list_with_kind(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        exits_2_with_one_line(capsys, ["run", "--config", str(cfg), "--kind", "eig_min"])

    def test_instance_out_in_missing_directory(self, tmp_path, capsys):
        exits_2_with_one_line(capsys, ["generate", "--kind", "eig_min", "--n", "4",
                                       "--out", str(tmp_path / "nodir" / "x.json")])

    def test_run_out_in_missing_directory(self, tmp_path, capsys, no_instance):
        exits_2_with_one_line(capsys, RUN + ["--out", str(tmp_path / "nodir" / "run")])

    def test_unwritable_run_output(self, tmp_path, capsys):
        (tmp_path / "run.csv").mkdir()  # the CSV path is taken by a directory
        exits_2_with_one_line(capsys, RUN + ["--out", str(tmp_path / "run")])

    def test_non_numeric_gamma_flag(self, capsys, no_instance):
        exits_2_with_one_line(capsys, RUN + ["--gamma", "abc"])

    @pytest.mark.parametrize("entry", [
        {"stepsize": "fast"}, {"t": "abc"}, {"k": "3"}, {"n_probes": "x"}, {"t": 2.5},
        {"seeds": ["x"]}, {"seed_count": "x"}, {"checkpoints": ["a"]}, {"probe_seed": "x"},
    ], ids=lambda entry: "-".join(entry))
    def test_non_numeric_config_value(self, tmp_path, capsys, no_instance, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": {"kind": "eig_min", "params": {"n": 4}},
                                   **entry}))
        exits_2_with_one_line(capsys, ["run", "--config", str(cfg)])

    def test_duplicate_seeds(self, tmp_path, capsys, no_instance):
        # outputs are keyed by seed: a repeated seed would mix up the rows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": {"kind": "eig_min", "params": {"n": 4}},
                                   "seeds": [0, 0]}))
        exits_2_with_one_line(capsys, ["run", "--config", str(cfg)])
        exits_2_with_one_line(capsys, RUN[:-1] + ["3,3"])


    @pytest.mark.parametrize("kind, field, value", [
        pytest.param("eig_min", "a", "\u00e9", id="non-ascii-base64"),
        pytest.param("eig_min", "a0", {"x": 1.0}, id="array-as-object"),
        pytest.param("eig_min", "a0", [0.5, "x", 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                     id="version-1-non-numeric"),
        pytest.param("eig_min", "a0", None, id="missing-a0"),
        pytest.param("eig_min", "n", "five", id="n-five"),
        pytest.param("eig_min", "block_sizes", "x", id="block-sizes-x"),
        pytest.param("sdf_system", "components", [{"type": "affine_noisy", "p": 2}],
                     id="component-missing-c0"),
        pytest.param("sdf_system", "components", [{"type": "quadratic", "p": 2, "rows": "2"}],
                     id="component-rows-text"),
    ])
    def test_malformed_instance_field(self, tmp_path, capsys, kind, field, value):
        # None deletes the field; "a" prefixes the valid base64 with the value
        inst = tmp_path / "inst.json"
        assert main(["generate", "--kind", kind, "--n", "4", "--blocks", "2,2",
                     "--out", str(inst)]) == 0
        payload = json.loads(inst.read_text())
        if field == "a0" and isinstance(value, list):
            payload["version"] = 1
        if value is None:
            del payload[field]
        elif field == "a":
            payload[field] = value + payload[field][1:]
        else:
            payload[field] = value
        inst.write_text(json.dumps(payload))
        capsys.readouterr()
        exits_2_with_one_line(capsys, ["run", "--instance", str(inst), "--t", "5",
                                       "--seeds", "1", "--checkpoints", "final"])

    @pytest.mark.parametrize("kind, name, value", [
        ("eig_min", "n", "x"), ("eig_min", "blocks", [2, "x"]), ("eig_min", "blocks", "2,2"),
        ("eig_min", "scale", "big"), ("sdf_system", "delta", "x"), ("sdf_system", "noise_m", "x"),
        ("sdf_system", "smooth_scale", [1.0]), ("sdf_system", "n_smooth", 1.5),
    ], ids=lambda v: str(v).replace(" ", ""))
    def test_non_numeric_instance_param(self, tmp_path, capsys, no_instance, kind, name, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": {"kind": kind, "params": {name: value}}}))
        exits_2_with_one_line(capsys, ["run", "--config", str(cfg)])


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "checks passed" in out

    def test_failures_exit_4(self, monkeypatch, capsys):
        from smpx import checks

        monkeypatch.setattr(
            checks, "run_all", lambda full=False: [("forced", False, "boom")]
        )
        assert main(["verify"]) == 4
        assert "FAIL forced" in capsys.readouterr().out


class TestSlopeCommand:
    def test_slope_on_run_output(self, tmp_path, capsys):
        inst = str(tmp_path / "inst.json")
        main(["generate", "--kind", "eig_min", "--n", "4", "--blocks", "2,2",
              "--seed", "3", "--out", inst])
        out = str(tmp_path / "exp")
        main(["run", "--instance", inst, "--t", "64", "--seeds", "0,1",
              "--checkpoints", "geometric", "--out", out])
        code = main(["slope", "--csv", out + ".csv", "--t-min", "4",
                     "--t-max", "64"])
        assert code == 0
        assert "slope =" in capsys.readouterr().out

    def test_degenerate_data_exits_3(self, tmp_path):
        path = str(tmp_path / "zeros.csv")
        lines = ["seed,t_checkpoint,err_nash,err_vi_probe,gamma,oracle_calls,wall_ms"]
        for t in (1, 2, 4, 8, 16):
            lines.append(f"0,{t},0.0,0.0,0.1,{2 * t},0")
        open(path, "w").write("\n".join(lines) + "\n")
        assert main(["slope", "--csv", path, "--t-min", "1", "--t-max", "16"]) == 3

    def _csv(self, tmp_path, cell):
        path = str(tmp_path / "res.csv")
        lines = ["seed,t_checkpoint,err_nash,err_vi_probe,gamma,oracle_calls,wall_ms"]
        for t in (1, 2, 4, 8, 16):
            lines.append(f"0,{t},{cell if t == 4 else 1.0 / t},0.0,0.1,{2 * t},0")
        open(path, "w").write("\n".join(lines) + "\n")
        return path

    def test_unknown_column_exits_2(self, tmp_path):
        path = self._csv(tmp_path, 0.25)
        assert main(["slope", "--csv", path, "--t-min", "1", "--t-max", "16",
                     "--column", "nope"]) == 2

    def test_non_numeric_cell_exits_2(self, tmp_path):
        path = self._csv(tmp_path, "abc")
        assert main(["slope", "--csv", path, "--t-min", "1", "--t-max", "16"]) == 2
