import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import dominates

import leodcb
from leodcb import neural, svgplot
from leodcb.agent import AgentConfig
from leodcb.baselines import BaselineKind, run_baseline_episode
from leodcb.emodrl import EmodrlConfig, ParetoArchive
from leodcb.env import TRACE_DTYPE, DcbUplinkEnv
from leodcb.errors import ConfigError, StateError
from leodcb.harness import (
    ARCHIVE_COLUMNS,
    load_archive,
    raw_objectives,
    replay_policy,
    run_experiment,
    select_policy,
    write_archive_csv,
    write_csv,
)
from leodcb.scenario import (
    DEFAULT_RF,
    Scenario,
    default_scenario,
    desk_scenario,
    load_scenario,
    micro_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from leodcb.seeding import stream

GOLDEN_TRACE = Path(__file__).parent / "data" / "golden_micro_argp_trace.csv"


def set_at(doc, location, value):
    """Set the value at a JSON location such as "constellation[1].altitude_m"."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", location)]
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def tiny_config():
    return EmodrlConfig(
        n_tasks=2, t_warm=2, t_task=1, t_evo=1,
        buffer_count=4, buffer_size=2, eval_episodes=1,
        agent=AgentConfig(
            replay_capacity=200, batch_size=8, target_sync_period=10,
            grad_steps_per_iteration=2, learning_rate=1e-3, hidden_sizes=(8, 8),
        ),
    )


class TestScenarioIO:
    def test_round_trip_identity(self, tmp_path):
        scenario = desk_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_round_trip_bytes_stable(self, tmp_path):
        scenario = micro_scenario()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(scenario, first)
        save_scenario(load_scenario(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_default_counts(self, tmp_path):
        path = tmp_path / "default.json"
        save_scenario(default_scenario(), path)
        loaded = load_scenario(path)
        assert loaded.n_satellites == 110
        assert loaded.n_terminals == 10
        altitudes = [sat.altitude for sat in loaded.constellation]
        assert altitudes.count(5e5) == 80
        assert altitudes.count(1e6) == 30
        assert loaded.rf.p_min == 1.0 and loaded.rf.p_max == 2.0
        assert loaded.rf.path_loss_exponent == 2.0

    def test_invalid_probability_rejected_with_named_constraint(self, tmp_path):
        doc = scenario_to_dict(micro_scenario())
        doc["unavailability_p"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="unavailability"):
            load_scenario(path)

    def test_a_carrier_frequency_key_is_unknown(self):
        # beta0 is the one channel-gain input; a carrier frequency changed nothing.
        doc = scenario_to_dict(micro_scenario())
        doc["rf"]["carrier_frequency_hz"] = 2.4e9
        with pytest.raises(ConfigError) as raised:
            scenario_from_dict(doc)
        assert str(raised.value) == "unknown keys in rf: ['carrier_frequency_hz']"

    def test_unknown_keys_rejected(self, tmp_path):
        doc = scenario_to_dict(micro_scenario())
        doc["surprise"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="surprise"):
            load_scenario(path)

    def test_terminal_count_override_keeps_rho0(self):
        # rho0 is a scenario input (JSON may set it), so an override that
        # redraws the terminals keeps it rather than re-deriving it.
        desk = desk_scenario()
        assert desk.with_overrides(n_terminals=12).rf.rho0 == desk.rf.rho0

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line"):
            load_scenario(path)

    @pytest.mark.parametrize("build", [micro_scenario, desk_scenario, default_scenario])
    def test_null_rho0_is_derived_as_in_the_named_scenario(self, build):
        scenario = build()
        doc = scenario_to_dict(scenario)
        doc["rf"]["rho0"] = None
        loaded = scenario_from_dict(doc)
        assert loaded == scenario
        assert loaded.rf.rho0.hex() == scenario.rf.rho0.hex()

    @pytest.mark.parametrize(
        ("location", "value", "message"),
        [("slot_seconds", 0, "scenario constraint violated: slot_seconds > 0"),
         ("rf.noise_power_w", 0.0, "rf: rf constraint violated: noise_power > 0"),
         ("rf.p_max_w", -1.0, "rf: rf constraint violated: 0 < p_min <= p_max"),
         ("constellation", [], "scenario constraint violated: n_satellites >= 1")],
    )
    def test_null_rho0_is_derived_only_after_its_inputs_are_checked(
        self, location, value, message
    ):
        doc = scenario_to_dict(micro_scenario())
        doc["rf"]["rho0"] = None
        set_at(doc, location, value)
        with pytest.raises(ConfigError) as raised:
            scenario_from_dict(doc)
        assert str(raised.value) == message

    def test_scenario_checks_its_inputs_before_deriving_rho0(self):
        micro = micro_scenario()
        fields = {f.name: getattr(micro, f.name) for f in dataclasses.fields(Scenario)}
        assert DEFAULT_RF.rho0 is None
        with pytest.raises(ConfigError, match=re.escape("slot_seconds > 0")):
            Scenario(**{**fields, "rf": DEFAULT_RF, "slot_seconds": 0.0})

    @pytest.mark.parametrize(
        ("field", "value"),
        [("slot_seconds", "1"), ("rate_threshold", None), ("unavailability", True),
         ("min_elevation", True), ("reference_longitude", None)],
    )
    def test_python_built_scenario_checks_its_reals(self, field, value):
        with pytest.raises(ConfigError) as raised:
            dataclasses.replace(micro_scenario(), **{field: value})
        assert str(raised.value) == f"scenario constraint violated: {field} is a number"

    @pytest.mark.parametrize(
        ("field", "value", "constraint"),
        [("reference_longitude", math.nan, "reference_longitude is finite"),
         ("reference_longitude", -math.inf, "reference_longitude is finite"),
         ("terminals", ((math.nan, 0.0), (1.0, 2.0)), "terminal coordinates are finite"),
         ("terminals", ((0.0, 0.0), (1.0, math.inf)), "terminal coordinates are finite")],
    )
    def test_python_built_scenario_rejects_non_finite_positions(self, field, value, constraint):
        # A NaN position was accepted, and every slot then saw no satellite.
        with pytest.raises(ConfigError) as raised:
            dataclasses.replace(micro_scenario(), **{field: value})
        assert str(raised.value) == f"scenario constraint violated: {constraint}"

    @pytest.mark.parametrize(
        ("location", "constraint"),
        [("reference_longitude_rad", "reference_longitude is finite"),
         ("terminals_m[1][0]", "terminal coordinates are finite")],
    )
    def test_json_nan_position_rejected(self, location, constraint):
        doc = scenario_to_dict(micro_scenario())
        set_at(doc, location, math.nan)
        text = json.dumps(doc)
        assert "NaN" in text    # which json.loads reads back as a float
        with pytest.raises(ConfigError) as raised:
            scenario_from_dict(json.loads(text))
        assert str(raised.value) == f"scenario constraint violated: {constraint}"

    def test_unavailability_override_must_be_a_number(self):
        with pytest.raises(ConfigError, match="unavailability is a number"):
            micro_scenario().with_overrides(unavailability=True)

    @pytest.mark.parametrize("key", ["n_slots", "n_schemes", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_count_or_seed_rejected(self, key, value):
        doc = scenario_to_dict(micro_scenario())
        doc[key] = value
        with pytest.raises(ConfigError, match=f"{key} is an integer"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        ("section", "value", "kind"),
        [("rf", None, "object"), ("constants", [], "object"),
         ("constellation", 3, "list"), ("terminals_m", {}, "list"),
         ("terminals_m[0]", [1, 2, 3], "list of two numbers"),
         ("terminals_m[0][1]", "b", "number"),
         ("terminals_m[1]", [1.0], "list of two numbers"),
         ("slot_seconds", "x", "number"), ("unavailability_p", None, "number"),
         ("constants.earth_mass_kg", "x", "number"),
         ("constellation[2].altitude_m", None, "number"), ("rf.p_max_w", True, "number")],
    )
    def test_section_of_the_wrong_type_rejected(self, section, value, kind):
        doc = scenario_to_dict(micro_scenario())
        set_at(doc, section, value)
        with pytest.raises(ConfigError, match=re.escape(f"{section} must be a JSON {kind}")):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        ("location", "value", "message"),
        [("constellation[1].altitude_m", -1.0,
          "constellation[1]: orbit constraint violated: altitude > 0"),
         ("rf.p_min_w", 5.0, "rf: rf constraint violated: 0 < p_min <= p_max"),
         ("constants.earth_radius_m", 0.0,
          "constants: constants constraint violated: earth_radius > 0"),
         ("constellation[0].raan_rad", math.nan,
          "constellation[0]: orbit constraint violated: raan is finite")],
    )
    def test_bad_section_value_names_its_location(self, location, value, message):
        # The section's own ConfigError, prefixed with its JSON location.
        doc = scenario_to_dict(micro_scenario())
        set_at(doc, location, value)
        with pytest.raises(ConfigError) as raised:
            scenario_from_dict(doc)
        assert str(raised.value) == message
        cause = raised.value.__cause__
        assert type(cause) is ConfigError and message.endswith(str(cause))

    @pytest.mark.parametrize("angle", [7.0, -0.5])
    def test_json_angles_are_wrapped_by_the_orbit_itself(self, angle):
        doc = scenario_to_dict(micro_scenario())
        doc["constellation"][0]["raan_rad"] = angle
        assert scenario_from_dict(doc).constellation[0].raan == angle % (2 * math.pi)

    @pytest.mark.parametrize(
        ("section", "value", "constraint"),
        [("terminals", ((0.0, "a"),), "terminals is a tuple of (east, north) number pairs"),
         ("terminals", ("xy",), "terminals is a tuple of (east, north) number pairs"),
         ("terminals", None, "terminals is a tuple of (east, north) number pairs"),
         ("constellation", (1,), "constellation is a tuple of OrbitalElements"),
         ("constellation", None, "constellation is a tuple of OrbitalElements"),
         ("constants", None, "constants is a PhysicalConstants"),
         ("rf", None, "rf is an RfConstants")],
    )
    def test_python_built_scenario_checks_its_sections_types(self, section, value, constraint):
        with pytest.raises(ConfigError) as raised:
            dataclasses.replace(micro_scenario(), **{section: value})
        assert str(raised.value) == f"scenario constraint violated: {constraint}"

    @pytest.mark.parametrize(
        ("count", "constraint"),
        [(0, "n_terminals >= 1"), (-1, "n_terminals >= 1"), (2.5, "n_terminals is an integer")],
    )
    def test_bad_terminal_count_override_rejected(self, count, constraint):
        with pytest.raises(ConfigError, match=constraint):
            micro_scenario().with_overrides(n_terminals=count)


class TestSeedPlumbing:
    def test_streams_reproducible(self):
        a = stream(7, "availability").random(5)
        b = stream(7, "availability").random(5)
        assert np.array_equal(a, b)

    def test_streams_independent_per_tag(self):
        a = stream(7, "availability").random(5)
        b = stream(7, "exploration").random(5)
        assert not np.array_equal(a, b)


class TestTraceGolden:
    def test_micro_argp_trace_matches_golden(self, tmp_path):
        trace = run_baseline_episode(BaselineKind.ARGP, DcbUplinkEnv(micro_scenario()), seed=0)
        path = tmp_path / "trace.csv"
        write_csv(path, TRACE_DTYPE.names, trace.tolist())
        assert path.read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_column_schema(self):
        header = GOLDEN_TRACE.read_text().splitlines()[0]
        assert header == "slot,satellite,scheme,rate_bps,total_power_w,switched,n_available"
        assert header == ",".join(TRACE_DTYPE.names)


class TestSelectPolicy:
    def test_favor_rate_returns_max_f1(self):
        objectives = [[1.0, -5.0, 0.0], [3.0, -9.0, -1.0], [2.0, -1.0, 0.0]]
        assert select_policy(objectives, "favor-rate") == 1

    def test_singleton_archive_for_every_preference(self):
        for preference in ("favor-rate", "favor-energy", "favor-switching", "balanced"):
            assert select_policy([[1.0, -2.0, -0.5]], preference) == 0

    def test_ties_break_to_the_lowest_row(self):
        objectives = [[1.0, -5.0, 0.0], [3.0, -9.0, -1.0], [3.0, -1.0, 0.0]]
        assert select_policy(objectives, [1.0, 0.0, 0.0]) == 1

    def test_balanced_invariant_to_positive_rescaling(self):
        rows = np.array([[1.0, -5.0, 0.0], [3.0, -9.0, -1.0], [2.0, -1.0, 0.0]])
        assert select_policy(rows, "balanced") == select_policy(6 * rows, "balanced") == 2

    def test_empty_archive_rejected(self):
        with pytest.raises(StateError):
            select_policy(ParetoArchive().objectives, "balanced")

    def test_unknown_preference_rejected(self):
        with pytest.raises(StateError, match="favor-rate"):
            select_policy([[1, 1, 1]], "favor-everything")


@pytest.fixture(scope="module")
def frozen_policy():
    scenario = desk_scenario()
    n_actions = scenario.n_schemes * scenario.n_satellites + 1
    return neural.init_params(2, (16,), n_actions, np.random.default_rng(4))


class TestReplayPolicy:

    def test_terminal_count_override_needs_no_reshaping(self, frozen_policy):
        scenario = desk_scenario()
        for n in (8, 12):
            f1, f2, f3 = replay_policy(
                frozen_policy, scenario.with_overrides(n_terminals=n), seeds=[1, 2]
            )
            assert np.isfinite([f1, f2, f3]).all()

    def test_p_zero_is_deterministic_across_seeds(self, frozen_policy):
        scenario = desk_scenario().with_overrides(unavailability=0.0)
        a = replay_policy(frozen_policy, scenario, seeds=[1])
        b = replay_policy(frozen_policy, scenario, seeds=[99])
        assert a == b

    def test_p_one_gives_zero_objectives(self, frozen_policy):
        scenario = desk_scenario().with_overrides(unavailability=1.0)
        triple = replay_policy(frozen_policy, scenario, seeds=[1])
        assert triple == (0.0, 0.0, 0.0)

    def test_no_seed_rejected(self, frozen_policy):
        with pytest.raises(ConfigError, match="at least one episode seed"):
            replay_policy(frozen_policy, desk_scenario(), seeds=[])

    def test_network_of_another_shape_rejected(self, frozen_policy):
        # The desk policy has 121 actions; micro has K N_L + 1 = 10.
        with pytest.raises(ConfigError, match="checkpoint action count 121 does not match the scenario's 10"):
            replay_policy(frozen_policy, micro_scenario(), seeds=[1])
        wide = neural.init_params(3, (4,), frozen_policy.n_actions, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="checkpoint input width 3 does not match the scenario's 2"):
            replay_policy(wide, desk_scenario(), seeds=[1])


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    return run_experiment(micro_scenario(), tiny_config(), out)


class TestRunExperiment:

    def test_report_lists_exactly_emitted_files(self, report):
        emitted = [
            report.archive_csv,
            report.generations_csv,
            *report.trace_csvs.values(),
            *report.svg_paths,
            *report.checkpoints,
        ]
        for path in emitted:
            assert Path(path).exists(), path
        assert Path(report.out_dir, "report.json").exists()

    def test_archive_rows_pairwise_nondominated(self, report):
        objectives, _, _ = load_archive(report.archive_csv)
        for i, a in enumerate(objectives):
            for j, b in enumerate(objectives):
                if i != j:
                    assert not dominates(a, b)

    def test_generation_log_schema(self, report):
        header = Path(report.generations_csv).read_text().splitlines()[0]
        assert header == "generation,population_size,archive_size,hypervolume"

    def test_same_seed_byte_identical_csvs(self, tmp_path):
        scenario = micro_scenario()
        first = run_experiment(scenario, tiny_config(), tmp_path / "a")
        second = run_experiment(scenario, tiny_config(), tmp_path / "b")
        # Checkpoints are named relative to archive.csv, so no path differs.
        assert Path(first.archive_csv).read_bytes() == Path(second.archive_csv).read_bytes()
        assert Path(first.generations_csv).read_bytes() == Path(
            second.generations_csv
        ).read_bytes()
        for name in first.trace_csvs:
            assert Path(first.trace_csvs[name]).read_bytes() == Path(
                second.trace_csvs[name]
            ).read_bytes()

    def test_one_env_for_the_run_and_one_for_the_lone_terminal(self, tmp_path, monkeypatch):
        built = []
        init = DcbUplinkEnv.__init__

        def counting_init(self, scenario):
            built.append(scenario.n_terminals)
            init(self, scenario)

        monkeypatch.setattr(DcbUplinkEnv, "__init__", counting_init)
        scenario = micro_scenario()
        run_experiment(scenario, tiny_config(), tmp_path)
        # Training, ARGP, RANDOM and the favor-rate rollout share one env;
        # the single-terminal NON_DCB episode needs its own.
        assert built == [scenario.n_terminals, 1]

    def test_svgs_are_valid_documents(self, report):
        for path in report.svg_paths:
            text = Path(path).read_text()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")


    def test_a_zero_rate_threshold_run_writes_every_artifact(self, tmp_path):
        scenario = dataclasses.replace(micro_scenario(), rate_threshold=0.0)
        report = run_experiment(scenario, tiny_config(), tmp_path)
        assert [Path(p).name for p in report.svg_paths] == [
            "rate_vs_threshold.svg", "pareto_front.svg", "objective_bars.svg"
        ]
        assert all(Path(p).exists() for p in report.svg_paths)
        assert (tmp_path / "report.json").exists()
        assert not (tmp_path / "partial_manifest.json").exists()


class TestRatePlot:
    @pytest.mark.parametrize(
        ("rates", "decades"),
        [([0.0, 5e3, 2e4], ["1e2", "1e3", "1e4", "1e5"]),   # the positive rates' span
         ([0.0, 0.0, 0.0], ["1e-1", "1e0"])],               # no positive value
    )
    def test_a_zero_threshold_takes_the_axis_from_positive_values(self, tmp_path, rates, decades):
        path = tmp_path / "rates.svg"
        svgplot.plot_rate_series(path, {"argp": rates}, 0.0, "rates")
        text = path.read_text()
        assert re.findall(r">(1e-?\d+)</text>", text) == decades
        assert "nan" not in text and text.rstrip().endswith("</svg>")


class TestLoadArchive:
    def test_round_trip(self, report):
        objectives, weights, checkpoints = load_archive(report.archive_csv)
        lines = Path(report.archive_csv).read_text().splitlines()
        assert len(objectives) == len(lines) - 1 == len(report.checkpoints)
        for i, (f, w, path, saved, line) in enumerate(
            zip(objectives, weights, checkpoints, report.checkpoints, lines[1:], strict=True)
        ):
            fields = line.split(",")
            assert [*raw_objectives(f), *w] == [float(v) for v in fields[1:7]]
            assert fields[7] == f"checkpoints/policy_{i:03d}.npz"
            assert path.samefile(saved)
            assert neural.load_params(path).flat.tobytes() == (
                neural.load_params(saved).flat.tobytes())

    def test_relative_out_resolves_from_any_directory(self, tmp_path, monkeypatch):
        from leodcb.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["run", "--scenario", "micro", "--out", "o", "--tasks", "2", "--warm", "2",
                     "--task-iters", "1", "--generations", "1", "--hidden", "8"]) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        for cwd, archive_csv in ((elsewhere, tmp_path / "o" / "archive.csv"),
                                 (tmp_path / "o", "archive.csv")):
            monkeypatch.chdir(cwd)
            _, _, checkpoints = load_archive(archive_csv)
            assert len(checkpoints) >= 1
            for path in checkpoints:
                assert path.is_file(), path
                assert neural.load_params(path).n_actions == 10

    def test_absolute_checkpoint_paths_still_resolve(self, report, tmp_path):
        lines = Path(report.archive_csv).read_text().splitlines()
        absolute = [lines[0], *(line.rsplit(",", 1)[0] + "," + path
                                for line, path in zip(lines[1:], report.checkpoints))]
        archive_csv = tmp_path / "archive.csv"
        archive_csv.write_text("\n".join(absolute) + "\n")
        _, _, checkpoints = load_archive(archive_csv)
        assert [str(path) for path in checkpoints] == report.checkpoints

    @pytest.mark.parametrize(
        ("edit", "where", "what"),
        [(lambda lines: ["policy,f1_bps", *lines[1:]], 1, "header is not policy,f1_bps,"),
         (lambda lines: lines[:1], 2, "no policy rows"),
         (lambda lines: [lines[0], lines[1] + ",extra"], 2, "9 fields, expected 8"),
         (lambda lines: [lines[0], lines[1].replace(",", ",x", 1)], 2, "a field is not a number")],
    )
    def test_malformed_csv_names_file_and_line(self, report, tmp_path, edit, where, what):
        lines = Path(report.archive_csv).read_text().splitlines()
        path = tmp_path / "archive.csv"
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{where}: {what}")):
            load_archive(path)


class TestWriteFailure:
    def test_io_failure_leaves_no_report(self, tmp_path, monkeypatch):
        from leodcb import harness

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(harness.svgplot, "plot_rate_series", explode)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(micro_scenario(), tiny_config(), tmp_path)
        # report.json is written last: without it the directory holds no finished run.
        assert (tmp_path / "archive.csv").exists()
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "partial_manifest.json").exists()


def files_under(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestOneRunPerDirectory:
    def test_a_failed_rerun_leaves_no_earlier_report(self, tmp_path, monkeypatch):
        from leodcb import harness

        run_experiment(micro_scenario(3), tiny_config(), tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["master_seed"] == 3

        def explode(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(harness, "write_archive_csv", explode)
        with pytest.raises(OSError, match="No space left"):
            run_experiment(micro_scenario(5), tiny_config(), tmp_path)
        # The earlier report listed checkpoints the failed rerun overwrote.
        assert not (tmp_path / "report.json").exists()

    def test_a_report_lists_every_checkpoint_in_its_directory(self, tmp_path):
        checkpoints = tmp_path / "checkpoints"
        checkpoints.mkdir()
        for name in ("policy_099.npz", "policy_7.npz", "policy_best.npz", "notes.txt"):
            (checkpoints / name).write_text("an earlier run's file")
        report = run_experiment(micro_scenario(), tiny_config(), tmp_path)
        listed = json.loads((tmp_path / "report.json").read_text())["checkpoints"]
        assert listed == report.checkpoints
        policies = sorted(str(p) for p in checkpoints.glob("policy_*.npz"))
        # Only policy_<digits>.npz files are a run's; the others stay.
        assert policies == sorted([*listed, str(checkpoints / "policy_best.npz")])
        assert (checkpoints / "notes.txt").exists()

    def test_a_run_that_fails_while_training_changes_no_file(self, tmp_path, monkeypatch):
        from leodcb import emodrl

        run_experiment(micro_scenario(), tiny_config(), tmp_path)
        before = files_under(tmp_path)

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic generation failure")

        monkeypatch.setattr(emodrl, "tpu", explode)
        with pytest.raises(RuntimeError, match="synthetic"):
            run_experiment(micro_scenario(5), tiny_config(), tmp_path)
        assert "report.json" in before and files_under(tmp_path) == before


class TestTrainingFailure:
    def test_error_propagates_and_writes_nothing(self, tmp_path, monkeypatch):
        from leodcb import emodrl

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic generation failure")

        monkeypatch.setattr(emodrl, "tpu", explode)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="synthetic"):
            run_experiment(micro_scenario(), tiny_config(), out)
        # Only the directories made before training, all empty.
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
            "checkpoints", "plots", "traces",
        ]


class TestCli:
    def test_baseline_and_select_commands(self, tmp_path, capsys):
        from leodcb.cli import main

        assert main(["baseline", "--kind", "argp", "--scenario", "micro",
                     "--seed", "0", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "argp" in out and "f1=" in out

        run_dir = tmp_path / "exp"
        scenario_path = tmp_path / "micro.json"
        save_scenario(micro_scenario(), scenario_path)
        assert main([
            "run", "--scenario", str(scenario_path), "--out", str(run_dir),
            "--tasks", "2", "--warm", "2", "--task-iters", "1",
            "--generations", "1", "--hidden", "8", "8", "--batch", "8",
        ]) == 0
        capsys.readouterr()
        assert main(["select", "--archive", str(run_dir / "archive.csv"),
                     "--preference", "favor-rate"]) == 0
        assert "policy" in capsys.readouterr().out

    def test_non_dcb_baseline_builds_only_the_single_terminal_env(
        self, tmp_path, monkeypatch, capsys
    ):
        from leodcb.cli import main

        built = []
        init = DcbUplinkEnv.__init__

        def counting_init(self, scenario):
            built.append(scenario.n_terminals)
            init(self, scenario)

        monkeypatch.setattr(DcbUplinkEnv, "__init__", counting_init)
        assert main(["baseline", "--kind", "non_dcb", "--scenario", "micro",
                     "--seed", "0", "--out", str(tmp_path)]) == 0
        assert built == [1]
        assert "non_dcb: f1=" in capsys.readouterr().out
        golden = GOLDEN_TRACE.with_name("golden_micro_non_dcb_trace.csv")
        assert (tmp_path / "non_dcb_seed0.csv").read_bytes() == golden.read_bytes()

    def test_select_opens_no_checkpoint(self, tmp_path, capsys, monkeypatch):
        from leodcb import cli
        from leodcb.cli import main

        report = run_experiment(micro_scenario(), tiny_config(), tmp_path)
        argv = ["select", "--archive", report.archive_csv, "--preference", "favor-rate"]
        assert main(argv) == 0
        line = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("select opened a checkpoint")

        # Wherever a checkpoint would be read from: the loader and np.load.
        for module in (neural, cli):
            monkeypatch.setattr(module, "load_params", refuse)
        monkeypatch.setattr(np, "load", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == line

    @pytest.mark.parametrize(
        "argv",
        [["baseline", "--kind", "argp", "--scenario", "micro", "--seed", "-1"],
         ["evaluate", "--checkpoint", "policy.npz", "--scenario", "micro", "--seeds", "-3"]],
    )
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        from leodcb.cli import main

        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"leodcb {argv[0]}: error: argument {argv[-2]}: "
            f"a seed is an integer >= 0, not '{argv[-1]}'"
        )

    def test_a_scenario_file_with_a_carrier_frequency_is_a_usage_error(self, tmp_path, capsys):
        from leodcb.cli import main

        doc = scenario_to_dict(micro_scenario())
        doc["rf"]["carrier_frequency_hz"] = 2.4e9
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exited:
            main(["run", "--scenario", str(path), "--out", str(tmp_path / "out"), "--tasks", "2",
                  "--warm", "2", "--task-iters", "1", "--generations", "1", "--hidden", "8"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "leodcb run: error: unknown keys in rf: ['carrier_frequency_hz']"
        )
        assert not (tmp_path / "out").exists()

    def test_select_rejects_unknown_preference_with_a_usage_error(self, tmp_path, capsys):
        from leodcb.cli import main
        from leodcb.neural import save_params

        scenario = micro_scenario()
        params = neural.init_params(
            2, (8,), scenario.n_schemes * scenario.n_satellites + 1,
            np.random.default_rng(0),
        )
        checkpoint = tmp_path / "policy.npz"
        save_params(checkpoint, params)
        archive = ParetoArchive(
            objectives=[[1.0, -1.0, -0.5]], weights=np.full((1, 3), 1 / 3), params=[params]
        )
        write_archive_csv(tmp_path / "archive.csv", archive, [str(checkpoint)])
        with pytest.raises(SystemExit) as exited:
            main(["select", "--archive", str(tmp_path / "archive.csv"),
                  "--preference", "favour-rate"])
        assert exited.value.code == 2
        assert "invalid choice: 'favour-rate'" in capsys.readouterr().err

    def test_baseline_writes_trace_to_default_out(self, tmp_path, monkeypatch, capsys):
        from leodcb.cli import OUT_DIR_ENV, main

        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        assert main(["baseline", "--kind", "argp", "--scenario", "micro"]) == 0
        assert (tmp_path / "argp_seed0.csv").exists()
        assert str(tmp_path / "argp_seed0.csv") in capsys.readouterr().out

    def test_evaluate_command(self, tmp_path, capsys):
        from leodcb.cli import main
        from leodcb.neural import save_params

        scenario = micro_scenario()
        params = neural.init_params(
            2, (8,), scenario.n_schemes * scenario.n_satellites + 1,
            np.random.default_rng(0),
        )
        checkpoint = tmp_path / "policy.npz"
        save_params(checkpoint, params)
        assert main(["evaluate", "--checkpoint", str(checkpoint),
                     "--scenario", "micro", "--p", "0.5", "--terminals", "3",
                     "--seeds", "1", "2"]) == 0
        assert "f1=" in capsys.readouterr().out

    def test_evaluate_rejects_a_negative_terminal_count(self, tmp_path, capsys):
        from leodcb.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["evaluate", "--checkpoint", str(tmp_path / "policy.npz"),
                  "--scenario", "micro", "--terminals", "-1"])
        assert exited.value.code == 2
        assert "n_terminals >= 1" in capsys.readouterr().err

    def test_evaluate_rejects_a_checkpoint_of_another_action_count(
        self, tmp_path, capsys, frozen_policy
    ):
        from leodcb.cli import main
        from leodcb.neural import save_params

        checkpoint = tmp_path / "desk_policy.npz"
        save_params(checkpoint, frozen_policy)
        with pytest.raises(SystemExit) as exited:
            main(["evaluate", "--checkpoint", str(checkpoint), "--scenario", "micro"])
        assert exited.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "leodcb evaluate: error: checkpoint action count 121 does not match the scenario's 10"
        )

    @pytest.mark.parametrize(
        ("argv", "missing"),
        [(["run", "--scenario", "{tmp}/nosuch.json"], "nosuch.json"),
         (["evaluate", "--checkpoint", "{tmp}/nosuch.npz", "--scenario", "micro"], "nosuch.npz")],
    )
    def test_missing_input_file_is_a_usage_error(self, tmp_path, capsys, argv, missing):
        from leodcb.cli import main

        with pytest.raises(SystemExit) as exited:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"leodcb {argv[0]}: error: cannot read {tmp_path / missing}: No such file or directory"
        )

    @pytest.mark.parametrize(
        "argv",
        [["run", "--scenario", "{dir}"],
         ["evaluate", "--checkpoint", "{dir}", "--scenario", "micro"],
         ["select", "--archive", "{dir}"]],
    )
    def test_directory_as_input_file_is_a_usage_error(self, tmp_path, capsys, argv):
        from leodcb.cli import main

        with pytest.raises(SystemExit) as exited:
            main([arg.format(dir=tmp_path) for arg in argv])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"leodcb {argv[0]}: error: cannot read {tmp_path}: Is a directory"
        )

    @pytest.mark.parametrize(
        ("argv", "failed"),
        [(["baseline", "--kind", "argp", "--scenario", "micro", "--out", "{file}/sub"], "sub"),
         (["run", "--scenario", "micro", "--out", "{file}/sub"], "sub/checkpoints")],
    )
    def test_unwritable_output_path_is_a_usage_error(self, tmp_path, capsys, argv, failed):
        from leodcb.cli import main

        file = tmp_path / "file"
        file.write_text("")
        with pytest.raises(SystemExit) as exited:
            main([arg.format(file=file) for arg in argv])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"leodcb {argv[0]}: error: cannot write {file}/{failed}: Not a directory"
        )

    def test_archive_with_no_rows_is_a_usage_error(self, tmp_path, capsys):
        from leodcb.cli import main

        archive_csv = tmp_path / "archive.csv"
        archive_csv.write_text(",".join(ARCHIVE_COLUMNS) + "\n")
        with pytest.raises(SystemExit) as exited:
            main(["select", "--archive", str(archive_csv)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"leodcb select: error: {archive_csv}:2: no policy rows"
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_archive_with_a_non_finite_field_is_a_usage_error(self, tmp_path, capsys, value):
        # argmax takes NaN for the largest value, so a NaN rate was selected.
        from leodcb.cli import main

        archive_csv = tmp_path / "archive.csv"
        archive_csv.write_text("\n".join([
            ",".join(ARCHIVE_COLUMNS),
            "0,1000.0,2.0,0.1,1.0,0.0,0.0,checkpoints/policy_000.npz",
            f"1,{value},2.0,0.1,0.0,1.0,0.0,checkpoints/policy_001.npz",
        ]) + "\n")
        with pytest.raises(SystemExit) as exited:
            main(["select", "--archive", str(archive_csv), "--preference", "favor-rate"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"leodcb select: error: {archive_csv}:3: a field is not a finite number"
        )

    def test_checkpoint_that_is_not_an_npz_is_a_usage_error(self, tmp_path, capsys):
        from leodcb.cli import main

        checkpoint = tmp_path / "bad.npz"
        checkpoint.write_text("{}")
        with pytest.raises(SystemExit) as exited:
            main(["evaluate", "--checkpoint", str(checkpoint), "--scenario", "micro"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"leodcb evaluate: error: checkpoint {checkpoint} is not an npz file without pickles"
        )

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [("trunk_b0", np.zeros(5), r"entry trunk_b0 has shape \(5,\), not \(8,\)"),
         ("format_version", np.array("1.0"), "entry format_version is not one integer"),
         ("n_trunk_layers", np.array([1, 2]), "entry n_trunk_layers is not one integer"),
         ("trunk_w0", np.zeros(2), r"entry trunk_w0 has shape \(2,\), not \(rows, columns\)"),
         ("n_trunk_layers", np.array(0), "entry n_trunk_layers is 0, not >= 1"),
         ("trunk_b0", np.array(["x"] * 8), "entry trunk_b0 holds <U1, not numbers")],
        ids=["bias-shape", "version-string", "layers-list", "weight-1d", "no-layers", "bias-strings"],
    )
    def test_malformed_checkpoint_entry_is_a_usage_error(self, tmp_path, capsys, key, value, message):
        from leodcb.cli import main
        from leodcb.neural import save_params

        scenario = micro_scenario()
        checkpoint = tmp_path / "policy.npz"
        save_params(checkpoint, neural.init_params(
            2, (8,), scenario.n_schemes * scenario.n_satellites + 1, np.random.default_rng(0),
        ))
        with np.load(checkpoint) as data:
            payload = dict(data)
        payload[key] = value
        np.savez(checkpoint, **payload)
        with pytest.raises(SystemExit) as exited:
            main(["evaluate", "--checkpoint", str(checkpoint), "--scenario", "micro"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.fullmatch(
            f"leodcb evaluate: error: checkpoint {re.escape(str(checkpoint))} {message}",
            err.splitlines()[-1],
        )

    def test_archive_with_a_bad_header_is_a_usage_error(self, tmp_path, capsys):
        from leodcb.cli import main

        archive_csv = tmp_path / "archive.csv"
        archive_csv.write_text("generation,population_size,archive_size,hypervolume\n0,2,1,1.0\n")
        with pytest.raises(SystemExit) as exited:
            main(["select", "--archive", str(archive_csv)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            f"leodcb select: error: {archive_csv}:1: header is not policy,f1_bps,"
        )

    @pytest.mark.parametrize(
        ("argv", "constraint"),
        [(["run", "--scenario", "micro", "--hidden", "0"], "hidden widths >= 1"),
         (["run", "--scenario", "{bad_json}"], "slot_seconds > 0")],
    )
    def test_bad_setting_is_a_usage_error(self, tmp_path, capsys, argv, constraint):
        from leodcb.cli import main

        doc = scenario_to_dict(micro_scenario())
        doc["rf"]["rho0"] = None
        doc["slot_seconds"] = 0
        bad_json = tmp_path / "bad.json"
        bad_json.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exited:
            main([arg.format(bad_json=bad_json) for arg in argv])
        assert exited.value.code == 2
        last_line = capsys.readouterr().err.splitlines()[-1]
        assert last_line.startswith("leodcb run: error: ")
        assert last_line.endswith(constraint)

    def test_module_entry_point_prints_no_traceback_for_a_bad_setting(self):
        src = str(Path(leodcb.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "leodcb.cli", "run", "--scenario", "micro", "--hidden", "0"],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "leodcb run: error: agent constraint violated: hidden widths >= 1" in done.stderr
