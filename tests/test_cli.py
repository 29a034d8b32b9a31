"""Command-line interface: subcommands, exit codes, and determinism."""

import json
import logging
import shutil
import subprocess
import sys

import numpy as np
import pytest

from boxot import cli, dual_solver, geometry, oracle
from boxot.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_NUMERICAL_ABORT,
    EXIT_OK,
    SEED_ENV_VAR,
    main,
)
from boxot.fixtures import named_instances
from boxot.geometry import BoxDensity, Hyperrectangle, Instance, SampleSet
from boxot.instance_io import load_instance, save_instance

from conftest import child_env

SAT_TEXT = "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
UNSAT_TEXT = "p cnf 3 8\n" + "\n".join(
    f"{s1 * 1} {s2 * 2} {s3 * 3} 0"
    for s1 in (1, -1)
    for s2 in (1, -1)
    for s3 in (1, -1)
) + "\n"


def _cube_4d(tmp_path):
    """Write the uniform density on [-1,1]^4 with sinks (+-1,0,0,0)."""
    path = tmp_path / "cube-4d.json"
    path.write_text(json.dumps({
        "dimension": 4,
        "boxes": [{"lo": [-1.0] * 4, "hi": [1.0] * 4, "weight": 1 / 16}],
        "samples": [{"point": [1.0, 0, 0, 0]}, {"point": [-1.0, 0, 0, 0]}],
    }))
    return str(path)


@pytest.fixture
def instance_files(tmp_path):
    paths = {}
    for name, instance in named_instances().items():
        path = tmp_path / f"{name}.json"
        save_instance(path, instance, {"name": name})
        paths[name] = str(path)
    return paths


class TestEstimate:
    def test_symmetric_interval_values(self, instance_files, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            ["estimate", instance_files["symmetric-interval"],
             "--seed", "0", "--out", str(out)]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert abs(payload["sigma_hat"] - 1.5) <= 0.05
        assert abs(payload["mu_hat"][0]) <= 0.05
        assert payload["guarantee_holds"]
        assert payload["epsilon"] == 0.05 and payload["eta"] == 0.01
        assert capsys.readouterr().out == ""

    def test_stdout_payload(self, instance_files, capsys):
        with pytest.warns(UserWarning, match="degenerate"):
            code = main(["estimate", instance_files["single-sink"], "--seed", "0"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["sigma_hat"]) <= 0.05
        assert abs(payload["mu_hat"][0] + 0.5) <= 0.05
        assert set(payload) == {
            "sigma_hat", "mu_hat", "rho", "dual_energy",
            "epsilon", "eta", "guarantee_holds", "iterations",
            "passes", "mc_points_gradient", "mc_points_energy", "eta_spent",
            "stop_reason", "backend",
        }
        assert payload["backend"] == "exact"
        assert payload["mc_points_gradient"] == payload["mc_points_energy"] == 0
        assert payload["eta_spent"] == 0.0
        assert payload["stop_reason"] in ("threshold", "budget")
        assert payload["passes"] >= payload["iterations"]

    def test_trace_csv(self, instance_files, tmp_path):
        out = tmp_path / "r.json"
        trace = tmp_path / "trace.csv"
        with pytest.warns(UserWarning, match="non-uniform"):
            code = main(
                ["estimate", instance_files["asymmetric-demands"], "--seed", "0",
                 "--out", str(out), "--trace", str(trace)]
            )
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == (
            "t,grad_norm,energy_estimate,step_size,wallclock_ms,g_inf_norm"
        )
        payload = json.loads(out.read_text())
        assert len(lines) - 1 == payload["iterations"]
        assert lines[1].startswith("1,")
        # no step leaves the last iterate
        assert float(lines[-1].split(",")[3]) == 0.0

    def test_same_seed_is_deterministic(self, instance_files, tmp_path):
        # The second run also writes the trace, which adds no solver work:
        # the result must not change, and every mc pass has an energy.
        trace = tmp_path / "trace.csv"
        outs = []
        for name, extra in (("a.json", []), ("b.json", ["--trace", str(trace)])):
            out = tmp_path / name
            code = main(
                ["estimate", instance_files["symmetric-interval"],
                 "--backend", "mc", "--epsilon", "0.9", "--eta", "0.5",
                 "--seed", "42", "--out", str(out), *extra]
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        header, *rows = trace.read_text().splitlines()
        column = header.split(",").index("energy_estimate")
        assert rows
        assert all(np.isfinite(float(row.split(",")[column])) for row in rows)

    def test_seed_from_environment(self, instance_files, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "42")
        out = tmp_path / "env.json"
        code = main(
            ["estimate", instance_files["symmetric-interval"],
             "--backend", "mc", "--epsilon", "0.9", "--eta", "0.5",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        explicit = tmp_path / "explicit.json"
        main(
            ["estimate", instance_files["symmetric-interval"],
             "--backend", "mc", "--epsilon", "0.9", "--eta", "0.5",
             "--seed", "42", "--out", str(explicit)]
        )
        assert out.read_text() == explicit.read_text()

    def test_garbage_environment_seed(self, instance_files, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code = main(["estimate", instance_files["symmetric-interval"]])
        assert code == EXIT_BAD_INPUT
        assert SEED_ENV_VAR in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["estimate", str(tmp_path / "nope.json")])
        assert code == EXIT_BAD_INPUT
        assert "error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["estimate", str(path)]) == EXIT_BAD_INPUT
        assert "invalid JSON" in capsys.readouterr().err

    def test_overlapping_boxes(self, tmp_path, capsys):
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps({
            "dimension": 1,
            "boxes": [
                {"lo": [-1.0], "hi": [1.0], "weight": 0.25},
                {"lo": [0.0], "hi": [2.0], "weight": 0.25},
            ],
            "samples": [{"point": [0.0]}],
        }))
        assert main(["estimate", str(path)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "boxes 0 and 1" in err and "overlap" in err

    def test_mc_budget_refusal(self, tmp_path, capsys):
        # l = 4 selects the MC backend; at epsilon 0.1 its per-box budget is
        # far above the sample cap, and the refusal is a numerical abort
        code = main(["estimate", _cube_4d(tmp_path), "--epsilon", "0.1"])
        assert code == EXIT_NUMERICAL_ABORT
        assert "exceeds cap" in capsys.readouterr().err

    def test_bad_epsilon(self, instance_files, capsys):
        code = main(
            ["estimate", instance_files["symmetric-interval"], "--epsilon", "0"]
        )
        assert code == EXIT_BAD_INPUT
        assert "epsilon" in capsys.readouterr().err


class TestReduce3Sat:
    def test_gamma_and_box_count(self, tmp_path, capsys):
        dimacs = tmp_path / "one.cnf"
        dimacs.write_text("p cnf 3 1\n1 2 3 0\n")
        out = tmp_path / "one.json"
        code = main(["reduce-3sat", str(dimacs), "--out", str(out)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "gamma = 9142.857142857141"
        assert lines[1] == "boxes = 7"
        instance, metadata = load_instance(out)
        assert metadata["name"] == "one"
        assert instance.dimension == 3
        assert instance.density.k == 7

    def test_instance_json_on_stdout(self, tmp_path, capsys):
        dimacs = tmp_path / "two.cnf"
        dimacs.write_text(SAT_TEXT)
        assert main(["reduce-3sat", str(dimacs)]) == EXIT_OK
        body = capsys.readouterr().out.split("\n", 2)[2]
        doc = json.loads(body)
        assert doc["dimension"] == 3
        assert len(doc["boxes"]) == 14

    def test_duplicate_variable_clause(self, tmp_path, capsys):
        dimacs = tmp_path / "dup.cnf"
        dimacs.write_text("p cnf 3 1\n1 1 2 0\n")
        assert main(["reduce-3sat", str(dimacs)]) == EXIT_BAD_INPUT
        assert "distinct" in capsys.readouterr().err

    def test_missing_dimacs(self, tmp_path, capsys):
        assert main(["reduce-3sat", str(tmp_path / "nope.cnf")]) == EXIT_BAD_INPUT
        capsys.readouterr()


class TestVerify:
    def test_oracle_pass_1d(self, instance_files, capsys):
        with pytest.warns(UserWarning, match="non-uniform"):
            code = main(
                ["verify", instance_files["asymmetric-demands"],
                 "--mode", "oracle", "--seed", "0"]
            )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.strip().endswith("route = monotone-1d\nPASS")
        assert "p* = " in out

    def test_oracle_pass_2d(self, instance_files, capsys):
        code = main(
            ["verify", instance_files["symmetric-square"],
             "--mode", "oracle", "--seed", "0", "--resolution", "100"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("route = sorted\nPASS")

    @staticmethod
    def _two_boxes_three_sinks(tmp_path):
        density = BoxDensity(
            dimension=2,
            boxes=(
                (Hyperrectangle([-1.0, -1.0], [0.0, 1.0]), 0.3),
                (Hyperrectangle([0.25, -0.5], [1.25, 0.5]), 0.4),
            ),
        )
        samples = SampleSet.uniform(np.array([[-0.6, 0.4], [-0.3, -0.7], [0.9, 0.1]]))
        path = tmp_path / "two-box.json"
        save_instance(path, Instance(density, samples), {"name": "two-box"})
        return str(path)

    def test_oracle_pass_default_resolution(self, tmp_path, capsys):
        """2-D, two boxes, three sinks: 80 000 oracle sources at resolution 200."""
        path = self._two_boxes_three_sinks(tmp_path)
        code = main(["verify", path, "--mode", "oracle", "--seed", "0"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("route = banded\nPASS")

    def test_oracle_reports_the_full_lp_route(self, tmp_path, capsys):
        """450 sources, at most the 500 that HiGHS solves whole."""
        path = self._two_boxes_three_sinks(tmp_path)
        code = main(
            ["verify", path, "--mode", "oracle", "--seed", "0", "--resolution", "15"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("route = full\nPASS")

    def test_oracle_failure_is_numerical_abort(
        self, instance_files, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise oracle.OracleFailure(
                "transportation solve failed to produce a certified plan"
            )

        monkeypatch.setattr(cli, "solve_discrete_ot_exact", fail)
        code = main(
            ["verify", instance_files["symmetric-square"],
             "--mode", "oracle", "--seed", "0", "--resolution", "10"]
        )
        assert code == EXIT_NUMERICAL_ABORT
        err = capsys.readouterr().err
        assert err.startswith("oracle: transportation solve failed")
        assert err.count("\n") == 1

    def test_oracle_fallback_time_limit(
        self, instance_files, monkeypatch, capsys, caplog
    ):
        """A full-LP fallback is logged, and one out of time is an oracle error."""
        monkeypatch.setattr(oracle, "_banded_plan", lambda *args: None)
        monkeypatch.setattr(oracle, "_LP_SECONDS", 1e-6)
        with caplog.at_level(logging.WARNING, logger="boxot"):
            code = main(
                ["verify", instance_files["symmetric-square"],
                 "--mode", "oracle", "--seed", "0", "--resolution", "30"]
            )
        assert code == EXIT_NUMERICAL_ABORT
        assert capsys.readouterr().err.startswith("oracle: transportation solve failed")
        records = [r for r in caplog.records if r.name == "boxot"]
        assert [r.levelno for r in records] == [logging.WARNING]
        assert "900 x 2" in records[0].getMessage()

    def test_sat_modes(self, tmp_path, capsys):
        sat = tmp_path / "sat.cnf"
        sat.write_text(SAT_TEXT)
        assert main(["verify", str(sat), "--mode", "sat"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "decide_positive_likelihood = True" in out
        assert out.strip().endswith("PASS")

        unsat = tmp_path / "unsat.cnf"
        unsat.write_text(UNSAT_TEXT)
        assert main(["verify", str(unsat), "--mode", "sat"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "decide_positive_likelihood = False" in out
        assert "brute_force_sat = False" in out

    def test_invariants_family_table(self, tmp_path, capsys):
        out = tmp_path / "ratios.csv"
        code = main(
            ["verify", "families", "--mode", "invariants", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "PASS"
        lines = out.read_text().splitlines()
        assert lines[0] == "family,m,ratio"
        assert len(lines) == 11
        assert lines[1].startswith("separation-family,1,")
        assert lines[10].startswith("thin-box-family,16,")

    def test_invariants_single_family_stdout(self, capsys):
        code = main(["verify", "separation-family", "--mode", "invariants"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "family,m,ratio"
        assert len(out) == 7 and out[-1] == "PASS"

    def test_invariants_random(self, capsys):
        code = main(["verify", "random", "--mode", "invariants", "--seed", "3"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "PASS"

    def test_invariants_instance(self, instance_files, capsys):
        code = main(
            ["verify", instance_files["symmetric-square"],
             "--mode", "invariants", "--seed", "0"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "PASS"

    def test_invariants_instance_4d(self, tmp_path, capsys):
        # l = 4 has no exact kernel: the E(0) bracket runs on MC.
        code = main(["verify", _cube_4d(tmp_path), "--mode", "invariants"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "PASS"

    def test_invariants_random_checks_the_partition(self, monkeypatch, capsys):
        # A kernel whose 2-D cells lose 1e-6 of their volume fails every
        # exact pass's volume-sum check; the invariants mode reports it as a
        # FAIL line and exit 1, not as a numerical failure.
        real = geometry._polygon_moments

        def shrunk(poly):
            vol, first = real(poly)
            return vol * (1.0 - 1e-6), first

        monkeypatch.setattr(geometry, "_polygon_moments", shrunk)
        code = main(["verify", "random", "--mode", "invariants", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_CHECK_FAILED, captured.err
        out = captured.out.splitlines()
        assert any(
            line.startswith("FAIL random instance ")
            and ": box 0: exact cell volumes sum to " in line
            for line in out
        ), out
        assert out[-1] == "FAIL"

    def test_missing_path(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "nope.json"), "--mode", "oracle"])
        assert code == EXIT_BAD_INPUT
        capsys.readouterr()

    def test_mode_is_required(self, instance_files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", instance_files["symmetric-interval"]])
        assert exc.value.code == 2
        capsys.readouterr()


class TestConsoleScript:
    def test_installed_entry_point(self, instance_files):
        exe = shutil.which("boxot")
        assert exe is not None, "console script not installed"
        proc = subprocess.run(
            [exe, "estimate", instance_files["symmetric-interval"], "--seed", "0"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK
        payload = json.loads(proc.stdout)
        assert abs(payload["sigma_hat"] - 1.5) <= 0.05


class TestParserReuse:
    # The parser is built once per process; no call may see another's options.

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_stay_independent(self, instance_files, tmp_path, capsys):
        first = instance_files["symmetric-interval"]
        second = instance_files["symmetric-square"]
        out = tmp_path / "first.json"
        assert main(["estimate", first, "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""

        # --out and --seed of the call before do not carry over.
        assert main(["estimate", second]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["guarantee_holds"]

        with pytest.raises(SystemExit) as exc:
            main(["estimate", first, "--backend", "bogus"])
        assert exc.value.code == EXIT_BAD_INPUT
        assert "invalid choice" in capsys.readouterr().err

        assert main(["estimate", first, "--seed", "3"]) == EXIT_OK
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import boxot.cli; print(boxot.cli.build_parser.cache_info().currsize)"],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestExitCodeContract:
    def test_check_failure_is_distinct_from_bad_input(self):
        assert EXIT_OK == 0
        assert EXIT_CHECK_FAILED == 1
        assert EXIT_BAD_INPUT == 2


def _singular(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


def _no_solve(*args, **kwargs):
    raise AssertionError("the command must fail before the solve")


def _nan_gradient(real):
    def evaluate(*args, **kwargs):
        p = real(*args, **kwargs)
        return p._replace(grad=np.full_like(p.grad, np.nan))

    return evaluate


# Faults injected before a row's command runs.
FAULTS = {
    None: lambda mp: None,
    "singular": lambda mp: mp.setattr(dual_solver, "_evaluate", _singular),
    "nan-gradient": lambda mp: mp.setattr(
        dual_solver, "_evaluate", _nan_gradient(dual_solver._evaluate)
    ),
    "no-plan": lambda mp: (
        mp.setattr(oracle, "_banded_plan", lambda *args: None),
        mp.setattr(oracle, "_full_plan", lambda *args: None),
    ),
    "bad-seed": lambda mp: mp.setenv(SEED_ENV_VAR, "not-a-number"),
    "no-solve": lambda mp: mp.setattr(cli, "estimate_parameters", _no_solve),
    # Every 2-D cell clipped in plain floats measures nothing.
    "lost-volume": lambda mp: mp.setattr(
        geometry, "_polygon_moments", lambda poly: (0.0, (0.0, 0.0))
    ),
}

# (argv, fault, exit code, stderr prefix, stderr substring); {name} is a path
# from the exit_files fixture.
EXIT_TABLE = [
    (["estimate", "{cube}", "--epsilon", "0.1"],
     None, EXIT_NUMERICAL_ABORT, "refused:", "exceeds cap"),
    (["verify", "{cube}", "--mode", "oracle", "--epsilon", "0.1"],
     None, EXIT_NUMERICAL_ABORT, "refused:", "exceeds cap"),
    (["estimate", "{cube}", "--backend", "exact"],
     None, EXIT_BAD_INPUT, "error:", "dimension <= 3"),
    (["estimate", "{interval}", "--out", "{missing}/r.json"],
     "no-solve", EXIT_BAD_INPUT, "error:", "No such file"),
    (["estimate", "{interval}", "--trace", "{missing}/t.csv"],
     "no-solve", EXIT_BAD_INPUT, "error:", "No such file"),
    (["reduce-3sat", "{sat}", "--out", "{missing}/i.json"],
     None, EXIT_BAD_INPUT, "error:", "No such file"),
    (["estimate", "{square}"],
     "singular", EXIT_NUMERICAL_ABORT, "numerical failure:", "Singular matrix"),
    (["verify", "{square}", "--mode", "oracle"],
     "singular", EXIT_NUMERICAL_ABORT, "numerical failure:", "Singular matrix"),
    (["estimate", "{square}"],
     "nan-gradient", EXIT_NUMERICAL_ABORT, "solver abort:", "non-finite gradient"),
    (["verify", "{square}", "--mode", "oracle"],
     "nan-gradient", EXIT_NUMERICAL_ABORT, "solver abort:", "non-finite gradient"),
    (["verify", "{square}", "--mode", "oracle", "--resolution", "10"],
     "no-plan", EXIT_NUMERICAL_ABORT, "oracle:", "certified plan"),
    (["estimate", "{missing}/nope.json"],
     None, EXIT_BAD_INPUT, "error:", "No such file"),
    (["estimate", "{broken}"], None, EXIT_BAD_INPUT, "error:", "invalid JSON"),
    (["estimate", "{overlap}"], None, EXIT_BAD_INPUT, "error:", "overlap"),
    (["estimate", "{interval}", "--epsilon", "0"],
     None, EXIT_BAD_INPUT, "error:", "epsilon"),
    (["estimate", "{interval}"], "bad-seed", EXIT_BAD_INPUT, "error:", SEED_ENV_VAR),
    (["verify", "{interval}", "--mode", "oracle"],
     "bad-seed", EXIT_BAD_INPUT, "error:", SEED_ENV_VAR),
    (["reduce-3sat", "{duplicate}"], None, EXIT_BAD_INPUT, "error:", "distinct"),
    (["reduce-3sat", "{missing}/nope.cnf"],
     None, EXIT_BAD_INPUT, "error:", "No such file"),
    (["verify", "{missing}/nope.json", "--mode", "oracle"],
     None, EXIT_BAD_INPUT, "error:", "No such file"),
    (["verify", "{missing}/nope.json", "--mode", "invariants"],
     None, EXIT_BAD_INPUT, "error:", "No such file"),
    (["verify", "{missing}/nope.cnf", "--mode", "sat"],
     None, EXIT_BAD_INPUT, "error:", "No such file"),
    (["estimate", "{square}"], "lost-volume", EXIT_NUMERICAL_ABORT,
     "numerical failure:", "box 0: exact cell volumes sum to 0.0"),
]


@pytest.fixture
def exit_files(tmp_path, instance_files):
    broken = tmp_path / "broken.json"
    broken.write_text("{broken")
    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({
        "dimension": 1,
        "boxes": [
            {"lo": [-1.0], "hi": [1.0], "weight": 0.25},
            {"lo": [0.0], "hi": [2.0], "weight": 0.25},
        ],
        "samples": [{"point": [0.0]}],
    }))
    sat = tmp_path / "sat.cnf"
    sat.write_text(SAT_TEXT)
    duplicate = tmp_path / "dup.cnf"
    duplicate.write_text("p cnf 3 1\n1 1 2 0\n")
    return {
        "cube": _cube_4d(tmp_path),
        "interval": instance_files["symmetric-interval"],
        "square": instance_files["symmetric-square"],
        "missing": str(tmp_path / "missing"),
        "broken": str(broken),
        "overlap": str(overlap),
        "sat": str(sat),
        "duplicate": str(duplicate),
    }


@pytest.mark.parametrize(
    "argv, fault, code, prefix, needle",
    EXIT_TABLE,
    ids=[f"{i}-{row[0][0]}-{row[3][:-1].replace(' ', '-')}"
         for i, row in enumerate(EXIT_TABLE)],
)
def test_exit_table(argv, fault, code, prefix, needle, exit_files, monkeypatch, capsys):
    """Every failure path ends in its exit code and one labelled stderr line."""
    FAULTS[fault](monkeypatch)
    assert main([arg.format(**exit_files) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix + " ")
    assert needle in err
    assert err.count("\n") == 1
