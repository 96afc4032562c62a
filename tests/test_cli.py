"""The repro-agg command-line interface."""

import os

import pytest

from repro.cli import build_parser, main, parse_topology


class TestTopologySpecs:
    def test_grid(self):
        topo = parse_topology("grid:3x4")
        assert topo.n_nodes == 12

    def test_grid_square_shorthand(self):
        assert parse_topology("grid:5").n_nodes == 25

    def test_path_cycle_star(self):
        assert parse_topology("path:7").n_nodes == 7
        assert parse_topology("cycle:8").n_nodes == 8
        assert parse_topology("star:9").n_nodes == 9

    def test_tree(self):
        assert parse_topology("tree:2,15").n_nodes == 15

    def test_geometric_and_gnp_seeded(self):
        a = parse_topology("geometric:30", seed=5)
        b = parse_topology("geometric:30", seed=5)
        assert a.adjacency == b.adjacency
        assert parse_topology("gnp:25", seed=1).n_nodes == 25

    def test_clustered(self):
        assert parse_topology("clustered:3x4").n_nodes == 12

    def test_file_round_trip(self, tmp_path):
        from repro.graphs import io as gio

        path = os.path.join(tmp_path, "t.json")
        gio.save(parse_topology("grid:3x3"), path)
        assert parse_topology(f"file:{path}").n_nodes == 9

    def test_unknown_spec(self):
        with pytest.raises(SystemExit):
            parse_topology("torus:5")


class TestCommands:
    def test_run_algorithm1(self, capsys):
        code = main(
            [
                "run",
                "--topology",
                "grid:4x4",
                "--protocol",
                "algorithm1",
                "-f",
                "2",
                "-b",
                "45",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "algorithm1" in out
        assert "True" in out  # correct column

    def test_run_bruteforce_no_failures(self, capsys):
        code = main(["run", "--topology", "path:6", "--protocol", "bruteforce"])
        assert code == 0
        assert "bruteforce" in capsys.readouterr().out

    def test_sweep_b(self, capsys):
        code = main(
            [
                "sweep-b",
                "--topology",
                "grid:4x4",
                "-f",
                "2",
                "--bs",
                "42,84",
                "--seeds",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "42" in out and "84" in out

    def test_figure1(self, capsys):
        code = main(["figure1", "-n", "256", "-f", "32", "--bs", "42,84"])
        out = capsys.readouterr().out
        assert code == 0
        assert "upper_bound_new" in out

    def test_figure1_with_plot(self, capsys):
        code = main(
            ["figure1", "-n", "256", "-f", "32", "--bs", "42,84", "--plot"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "log scale" in out

    def test_select(self, capsys):
        code = main(
            ["select", "--topology", "grid:4x4", "-k", "3", "-f", "1", "-b", "45"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "COUNT probes" in out

    def test_topology_export(self, capsys, tmp_path):
        out_path = os.path.join(tmp_path, "g.dot")
        code = main(["topology", "--topology", "grid:3x3", "--out", out_path])
        assert code == 0
        assert os.path.exists(out_path)
        assert "saved" in capsys.readouterr().out

    def test_worst_case_search(self, capsys):
        code = main(
            [
                "worst-case",
                "--topology",
                "grid:4x4",
                "-f",
                "2",
                "-b",
                "45",
                "--restarts",
                "1",
                "--steps",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0  # zero incorrect results
        assert "worst CC" in out

    def test_monitor(self, capsys):
        code = main(
            [
                "monitor",
                "--topology",
                "grid:4x4",
                "--epochs",
                "2",
                "-f",
                "2",
                "-b",
                "45",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "epoch" in out

    def test_baseline_capture_and_check(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "base.json")
        assert main(["baseline", "capture", "--path", path]) == 0
        capsys.readouterr()
        assert main(["baseline", "check", "--path", path]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestGrayFlags:
    def test_run_with_gray_and_adaptive_rto(self, capsys):
        code = main(
            [
                "run",
                "--topology",
                "grid:3x3",
                "-f",
                "2",
                "-b",
                "64",
                "--retransmit-budget",
                "2",
                "--rto",
                "adaptive",
                "--gray",
                "rate:0.3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "gray_stalled" in out

    def test_run_with_explicit_gray_spec(self, capsys):
        code = main(
            [
                "run",
                "--topology",
                "grid:3x3",
                "-f",
                "2",
                "-b",
                "64",
                "--retransmit-budget",
                "2",
                "--gray",
                "4:stall@r5-r15:x2",
            ]
        )
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_chaos_gray_gate(self, capsys):
        code = main(
            [
                "chaos",
                "--topology",
                "grid:3x3",
                "--protocol",
                "algorithm1",
                "-f",
                "2",
                "-b",
                "64",
                "--inject",
                "drop=0.02",
                "--retransmit-budget",
                "2",
                "--rto",
                "adaptive",
                "--gray",
                "rate:0.3",
                "--seeds",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "false-suspect" in out and "unbounded-stall" in out
        assert "suspects" in out


class TestFlagValidation:
    """Flag combinations that would silently do nothing are rejected."""

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["run", "--rto", "adaptive"], "--rto adaptive"),
            (["chaos", "--rto", "adaptive"], "--rto adaptive"),
            (
                [
                    "run",
                    "--retransmit-budget",
                    "2",
                    "--rto",
                    "adaptive",
                    "--churn",
                    "rate:0.1",
                ],
                "mutually exclusive",
            ),
            (
                ["chaos", "--recover", "--churn", "rate:0.1"],
                "mutually exclusive",
            ),
            (["run", "--flap-rate", "0.5"], "--flap-rate"),
            (["run", "--max-epochs", "3"], "--max-epochs"),
            (["run", "--amnesiac", "0.5"], "--amnesiac"),
            (["run", "--gray", "rate:bogus"], "--gray"),
            (
                ["run", "--gray", "nonsense", "--retransmit-budget", "2"],
                "--gray",
            ),
            (
                ["run", "--churn", "rate:0.1", "--integrity", "mac"],
                "--churn and --integrity are mutually exclusive",
            ),
            (
                ["chaos", "--churn", "rate:0.1", "--integrity", "checksum"],
                "--churn and --integrity are mutually exclusive",
            ),
            (
                [
                    "run",
                    "--protocol",
                    "unknown_f",
                    "-f",
                    "1",
                    "--retransmit-budget",
                    "2",
                    "--churn",
                    "5:crash@r3,5:revive@r7",
                    "--amnesiac",
                    "0.9",
                    "--flap-rate",
                    "0.9",
                ],
                "--amnesiac shapes the --churn rate:<x> random draw; "
                "an explicit --churn spec ignores it",
            ),
            (
                ["run", "--churn", "5:crash@r3,5:revive@r7", "--flap-rate", "0.9"],
                "--flap-rate shapes the --churn rate:<x> random draw; "
                "an explicit --churn spec ignores it",
            ),
            (
                ["run", "--witnesses", "3"],
                "--witnesses sizes the --byz witness panels; "
                "it does nothing without --byz",
            ),
            (
                ["run", "--evict-policy", "flag"],
                "--evict-policy picks the --byz conviction response; "
                "it does nothing without --byz",
            ),
        ],
    )
    def test_rejected_combinations(self, argv, needle):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--topology", "grid:3x3"])
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["run", "--churn", "rate:1.5"], "--churn rate in 'rate:1.5'"),
            (
                ["chaos", "--churn", "rate:-0.2", "--seeds", "1"],
                "--churn rate in 'rate:-0.2'",
            ),
            (
                ["chaos", "--gray", "rate:nan", "--seeds", "1"],
                "--gray rate in 'rate:nan'",
            ),
            (
                ["chaos", "--byz", "rate:2", "--seeds", "1"],
                "--byz rate in 'rate:2'",
            ),
            (
                ["chaos", "--churn", "rate:0.1", "--amnesiac", "1.5",
                 "--seeds", "1"],
                "amnesiac fraction must be in [0, 1]",
            ),
            (
                ["chaos", "--churn", "rate:0.1", "--flap-rate", "3",
                 "--seeds", "1"],
                "flap rate must be in [0, 1]",
            ),
            (
                ["sweep-b", "-f", "1", "--bs", "42", "--seeds", "1",
                 "--gray", "rate:7"],
                "--gray rate in 'rate:7'",
            ),
        ],
    )
    def test_out_of_range_random_specs_fail_before_any_run(
        self, argv, needle, capsys
    ):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--topology", "grid:3x3"])
        assert str(err.value).startswith("error: bad --")
        assert needle in str(err.value)
        assert capsys.readouterr().out == ""

    def test_hedge_is_no_longer_an_option(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--hedge", "--topology", "grid:3x3"])
        assert err.value.code == 2
        assert "unrecognized arguments: --hedge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--retries", "1"], ["--backoff", "0.1"]]
    )
    def test_retry_flags_are_no_longer_options(self, flag, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep-b", "--topology", "grid:3x3", "-f", "1", *flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err
        )

    def test_warm_cache_prints_the_cold_table(self, tmp_path, capsys):
        argv = [
            "run", "--topology", "grid:4x4", "--protocol", "unknown_f",
            "-f", "1", "--byz", "rate:0.2", "--witnesses", "3",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_amnesiac_with_churn_still_works(self, capsys):
        code = main(
            [
                "run",
                "--topology",
                "grid:3x3",
                "--protocol",
                "unknown_f",
                "-f",
                "1",
                "--churn",
                "rate:0.05",
                "--amnesiac",
                "0.0",
                "--retransmit-budget",
                "2",
            ]
        )
        assert code == 0
        assert "unknown_f" in capsys.readouterr().out


class TestReplayRefusesBadBundles:
    """A bundle whose nested transport is malformed is refused with a
    named error and exit 1, not a traceback."""

    BUNDLE = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "corpus",
        "unknown_f-grid4x4-s0-recovered-21f03301ec.min.json",
    )

    @pytest.mark.parametrize(
        "transport, message",
        [
            (
                {"rto": "fixed"},
                "TransportConfig needs its 'retransmits' field; this "
                "bundle cannot be replayed",
            ),
            (
                {"retransmits": 3, "hedge": True},
                "hedge=True is no longer supported (the runtime always "
                "uses False); this bundle cannot be replayed",
            ),
        ],
        ids=["missing-retransmits", "retired-hedge"],
    )
    def test_bad_recovery_transport(self, transport, message, tmp_path, capsys):
        import json

        with open(self.BUNDLE) as fh:
            bundle = json.load(fh)
        bundle["params"]["recovery"]["transport"] = transport
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bundle))
        assert main(["replay", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"cannot replay: {message}"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                {"recovery": [1]},
                "params field 'recovery' has the wrong JSON shape "
                "(RecoveryPolicy must be a JSON object, not [1]); this "
                "bundle cannot be replayed",
            ),
            (
                {"recovery": None, "churn": {"cycles": {"5": 3}}},
                "ChurnSchedule field 'cycles' has the wrong JSON shape "
                "('int' object is not iterable); this bundle cannot be "
                "replayed",
            ),
        ],
        ids=["recovery-list", "churn-cycle-number"],
    )
    def test_wrong_json_shape(self, edit, message, tmp_path, capsys):
        import json

        with open(self.BUNDLE) as fh:
            bundle = json.load(fh)
        for key, value in edit.items():
            if value is None:
                del bundle["params"][key]
            else:
                bundle["params"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bundle))
        assert main(["replay", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"cannot replay: {message}"
        )


class TestSweepStore:
    """A finished sweep row is served from the ``--cache-dir`` result
    cache only; there is no other store."""

    SWEEP = ["sweep-b", "--topology", "grid:4x4", "-f", "1", "--bs", "60",
             "--seeds", "2"]

    def test_resume_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.SWEEP + ["--resume", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cached_plain_row_is_not_served_to_a_recover_sweep(
        self, tmp_path, capsys
    ):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + cache) == 0
        plain = capsys.readouterr().out
        assert "certified_rows" not in plain
        assert main(self.SWEEP + cache + ["--recover"]) == 0
        recovered = capsys.readouterr().out
        assert main(self.SWEEP + ["--recover"]) == 0
        assert recovered == capsys.readouterr().out
        assert "certified_rows" in recovered
        assert recovered.splitlines()[-1] != plain.splitlines()[-1]
