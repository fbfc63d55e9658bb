import json

from smpx.cli import main


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

    def test_infeasible_gamma_exits_2(self, tmp_path):
        inst = str(tmp_path / "inst.json")
        main(["generate", "--kind", "eig_min", "--n", "4", "--blocks", "2,2",
              "--seed", "3", "--out", inst])
        code = main(
            ["run", "--instance", inst, "--t", "8", "--gamma", "99.0",
             "--seeds", "0", "--out", str(tmp_path / "e")]
        )
        assert code == 2


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
