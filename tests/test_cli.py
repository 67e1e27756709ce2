import json

import numpy as np
import pytest

from sigspace import SymmetricForm, make_ball_grid
from sigspace.acceptance import CriterionResult
from sigspace.cli import main


def _write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _write_form(path, entries):
    return _write_json(path, SymmetricForm(entries).to_dict())


def _read_report(capsys):
    return json.loads(capsys.readouterr().out)


class TestSignatureCommand:
    def test_identity_3x3(self, tmp_path, capsys):
        infile = _write_form(tmp_path / "id3.json", np.eye(3))
        assert main(["signature", "--in", infile]) == 0
        report = _read_report(capsys)
        assert report["results"]["signature"] == [3, 0]
        assert report["pass"] is True

    def test_method_flag(self, tmp_path, capsys):
        infile = _write_form(tmp_path / "offdiag.json", [[0.0, 1.0], [1.0, 0.0]])
        assert main(["signature", "--in", infile, "--method", "eigen"]) == 0
        assert _read_report(capsys)["results"]["signature"] == [1, 1]

    def test_minor_breakdown_is_input_error(self, tmp_path, capsys):
        infile = _write_form(tmp_path / "offdiag.json", [[0.0, 1.0], [1.0, 0.0]])
        assert main(["signature", "--in", infile, "--method", "minors"]) == 2
        assert _read_report(capsys)["error"]["type"] == "MinorBreakdown"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["signature", "--in", str(tmp_path / "nope.json")]) == 2
        assert "error" in _read_report(capsys)

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["signature", "--in", str(bad)]) == 2
        assert _read_report(capsys)["error"]["type"] == "JSONDecodeError"


class TestDensityCommand:
    def test_scalar_density(self, tmp_path, capsys):
        infile = _write_form(tmp_path / "form_n1_2.json", [[2.0]])
        assert main(["density", "--in", infile]) == 0
        report = _read_report(capsys)
        assert report["results"]["density"] == pytest.approx(0.5, rel=1e-12)
        names = [c["name"] for c in report["checks"]]
        assert "closed_form_agreement" in names


class TestMetricCommand:
    def test_metric_report(self, tmp_path, capsys):
        infile = _write_form(tmp_path / "i2.json", np.eye(2))
        assert main(["metric", "--in", infile]) == 0
        report = _read_report(capsys)
        np.testing.assert_allclose(report["results"]["Q"], np.diag([1.0, 2.0, 1.0]))
        assert report["results"]["signature"] == [3, 0]
        np.testing.assert_allclose(report["results"]["alpha"], [1.0, 0.0, 1.0])
        assert report["results"]["qinv_alpha_alpha"] == pytest.approx(2.0)

    def test_deformed_metric_signature(self, tmp_path, capsys):
        infile = _write_form(tmp_path / "i2.json", np.eye(2))
        assert main(["metric", "--in", infile, "--a", "-1.0"]) == 0
        assert _read_report(capsys)["results"]["signature"] == [2, 1]


class TestWitnessCommand:
    def test_witness_between_definite_forms(self, tmp_path, capsys):
        src = _write_form(tmp_path / "a.json", np.eye(2))
        dst = _write_form(tmp_path / "b.json", np.diag([4.0, 1.0]))
        assert main(["witness", "--from", src, "--to", dst, "--positive-det"]) == 0
        report = _read_report(capsys)
        g = np.asarray(report["results"]["g"])
        assert np.linalg.det(g) > 0
        assert report["results"]["residual"] < 1e-9

    def test_signature_mismatch_exit_2(self, tmp_path, capsys):
        src = _write_form(tmp_path / "a.json", np.eye(2))
        dst = _write_form(tmp_path / "b.json", np.diag([1.0, -1.0]))
        assert main(["witness", "--from", src, "--to", dst]) == 2
        assert _read_report(capsys)["error"]["type"] == "SignatureMismatch"


class TestMCCommands:
    @pytest.fixture
    def config_path(self, tmp_path):
        return _write_json(
            tmp_path / "experiment.json",
            {
                "box": {"signature": [1, 0], "lower": [1.0], "upper": [2.0]},
                "integrand": {"type": "bump", "center": [1.5], "radius": 0.45},
                "seed": 3,
                "n_samples": 20000,
            },
        )

    def test_mc_report(self, config_path, capsys):
        assert main(["mc", "--config", config_path, "--seed", "7"]) == 0
        report = _read_report(capsys)
        for key in ("estimate", "std_error", "n_samples", "acceptance_rate"):
            assert key in report["results"]
        assert report["results"]["n_samples"] == 20000

    def test_mc_csv_sweep(self, config_path, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(["mc", "--config", config_path, "--samples", "4000", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "n_samples,estimate,std_error,acceptance_rate"
        assert len(lines) == 1 + 3  # 1000, 2000, 4000
        capsys.readouterr()

    def test_mc_deterministic_reports(self, config_path, capsys):
        assert main(["mc", "--config", config_path]) == 0
        first = _read_report(capsys)
        assert main(["mc", "--config", config_path]) == 0
        second = _read_report(capsys)
        first.pop("meta")
        second.pop("meta")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_thread_cap_env_var_keeps_determinism(self, config_path, capsys, monkeypatch):
        assert main(["mc", "--config", config_path]) == 0
        sequential = _read_report(capsys)
        monkeypatch.setenv("SIGSPACE_THREADS", "4")
        assert main(["mc", "--config", config_path]) == 0
        threaded = _read_report(capsys)
        assert sequential["results"] == threaded["results"]

    def test_invariance_report(self, tmp_path, capsys):
        config = _write_json(
            tmp_path / "inv.json",
            {
                "box": {"signature": [1, 0], "lower": [1.0], "upper": [2.0]},
                "integrand": {"type": "bump", "center": [1.5], "radius": 0.45},
                "g": [[2.0]],
                "seed": 5,
                "n_samples": 50000,
            },
        )
        assert main(["invariance", "--config", config]) == 0
        report = _read_report(capsys)
        assert abs(report["results"]["difference_sigmas"]) < 3.0
        assert report["pass"] is True


class TestDeformCommand:
    def test_deform_round_trip(self, tmp_path, capsys):
        grid = make_ball_grid(SymmetricForm(np.eye(2)), spacing=0.25)
        grid_path = _write_json(tmp_path / "grid.json", grid.to_dict())
        target_path = _write_form(tmp_path / "target.json", np.diag([4.0, 1.0]))
        out_path = tmp_path / "deformed.json"
        code = main(
            ["deform", "--grid", grid_path, "--center", "0", "--target", target_path,
             "--out", str(out_path)]
        )
        assert code == 0
        report = _read_report(capsys)
        assert report["results"]["center_residual"] < 1e-9
        assert report["results"]["exterior_points_changed"] == 0
        written = json.loads(out_path.read_text(encoding="utf-8"))
        assert written["signature"] == [2, 0]
        center = next(p for p in written["points"] if p["id"] == 0)
        np.testing.assert_allclose(center["q"], [[4.0, 0.0], [0.0, 1.0]], atol=1e-9)


class TestProjectiveDemo:
    def test_demo_passes(self, capsys):
        code = main(["projective-demo", "--points", "3", "--dim", "2", "--seed", "1",
                     "--rescale-c", "2.0"])
        assert code == 0
        report = _read_report(capsys)
        for name, value in report["results"]["residuals"].items():
            assert value <= 1e-12, name


class TestSuiteCommand:
    def test_suite_wiring(self, capsys, monkeypatch):
        # patch the battery down to one fast criterion: this asserts the
        # report plumbing and exit code, not the criteria themselves
        from sigspace import acceptance, cli

        monkeypatch.setattr(
            acceptance, "_CRITERIA", [acceptance.criterion_1_density_n1]
        )
        assert cli.main(["suite", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["results"]["all_passed"] is True
        assert report["results"]["criteria"][0]["index"] == 1
        assert report["results"]["criteria"][0]["numeric_passed"] is True
        assert report["results"]["criteria"][0]["within_budget"] is True
        assert "[PASS] criterion 1" in captured.err

    def test_suite_failure_exit_code(self, capsys, monkeypatch):
        from sigspace import acceptance, cli

        def failing(seed=0):
            return CriterionResult(
                index=99, name="stub", numeric_passed=False, runtime_s=0.0,
                runtime_budget_s=1.0, details={},
            )

        monkeypatch.setattr(acceptance, "_CRITERIA", [failing])
        assert cli.main(["suite"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["all_passed"] is False


class TestReportShape:
    def test_report_written_to_file(self, tmp_path):
        infile = _write_form(tmp_path / "id2.json", np.eye(2))
        out = tmp_path / "report.json"
        assert main(["signature", "--in", infile, "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["task"] == "signature"
        assert "timestamp" in report["meta"] and "wall_time_s" in report["meta"]
        assert report["inputs"]["infile"] == infile

    def test_every_check_carries_tolerance(self, tmp_path, capsys):
        infile = _write_form(tmp_path / "i2.json", np.eye(2))
        assert main(["metric", "--in", infile]) == 0
        report = _read_report(capsys)
        assert report["checks"]
        for check in report["checks"]:
            assert set(check) == {"name", "value", "tolerance", "passed"}
