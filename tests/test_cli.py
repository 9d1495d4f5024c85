"""End-to-end command-line checks, run in-process through main(argv)."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sobstab
from sobstab.cli import main
from sobstab.constants import Ambient, sharp_constants
from sobstab.errors import QuadratureNonConvergence
from sobstab.thresholds import compare

AMB31 = Ambient(3, 1.0)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_config(tmp_path, doc, name="u.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SINGLE = {
    "d": 3,
    "s": 1.0,
    "terms": [{"coeff": 2.0, "center": [0.0, 0.0, 0.0], "lambda": 3.0}],
}
PAIR = {
    "d": 3,
    "s": 1.0,
    "terms": [
        {"coeff": 1.0, "center": [0.0, 0.0, 0.0], "lambda": 1.0},
        {"coeff": 1.0, "center": [0.0, 0.0, 0.0], "lambda": 0.01},
    ],
}

COLLINEAR_PAIR = {
    "d": 3,
    "s": 1.0,
    "terms": [
        {"coeff": 1.0, "center": [0.0, 0.0, 0.0], "lambda": 1.0},
        {"coeff": 0.7, "center": [2.0, 0.0, 0.0], "lambda": 0.5},
    ],
}


COLLINEAR_TRIPLE = {
    "d": 3,
    "s": 1.0,
    "terms": COLLINEAR_PAIR["terms"]
    + [{"coeff": -0.4, "center": [-1.5, 0.0, 0.0], "lambda": 2.0}],
}


class TestConstants:
    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "constants", "--d", "3", "--s", "1")
        assert rc == 0
        doc = json.loads(out)
        cst = sharp_constants(AMB31)
        assert doc["two_star"] == 6.0
        assert doc["S_d"] == cst.S_d
        assert doc["c0"] == cst.c0
        assert doc["a_d"] == cst.a_d
        assert doc["provenance"]["certified"] is True
        assert "upper bounds" in doc["provenance"]["note"]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "constants", "--d", "5", "--s", "1")
        assert rc == 0
        target = tmp_path / "c.json"
        rc2 = main(["constants", "--d", "5", "--s", "1", "--out", str(target)])
        capsys.readouterr()
        assert rc2 == 0
        assert target.read_text() == out

    def test_bad_ambient_is_exit_2(self, capsys):
        rc, _, err = run(capsys, "constants", "--d", "3", "--s", "2.0")
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("d", ["328", "1" + "0" * 400], ids=["328", "401-digit"])
    def test_too_large_d_is_exit_2(self, capsys, d):
        """At d = 328, c_d^(2*) = Gamma(d)/(pi^(d/2) Gamma(d/2)) leaves the
        float range; a 401-digit d does not convert to a float at all."""
        rc, out, err = run(capsys, "constants", "--d", d, "--s", "1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: d ")

    def test_unwritable_out_is_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "c.json"
        rc, out, err = run(capsys, "constants", "--d", "3", "--s", "1",
                           "--out", str(target))
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")


class TestThresholds:
    def test_spectral_side(self, capsys):
        rc, out, _ = run(capsys, "thresholds", "--d", "3", "--s", "1")
        doc = json.loads(out)
        assert rc == 0
        assert doc["binding"] == "SPECTRAL"
        assert doc["upper_bound_on_cBE"] == doc["c_spec"]

    def test_two_peak_side(self, capsys):
        rc, out, _ = run(capsys, "thresholds", "--d", "7", "--s", "1")
        doc = json.loads(out)
        assert doc["binding"] == "TWO_PEAK"
        assert doc["upper_bound_on_cBE"] == doc["c_two_peak"]

    @pytest.mark.parametrize("s", ["1", "0.3"])
    def test_equals_crossover_entries(self, capsys, s):
        _, out, _ = run(capsys, "crossover", "--s", s, "--format", "json")
        for entry in json.loads(out)["reports"]:
            _, single, _ = run(capsys, "thresholds", "--d", str(entry["d"]), "--s", s)
            doc = json.loads(single)
            del doc["provenance"]
            assert doc == entry


class TestCrossover:
    def test_json_format(self, capsys):
        rc, out, _ = run(
            capsys, "crossover", "--s", "1", "--format", "json"
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["crossover_d"] == 6
        assert doc["exploratory"] is False
        assert len(doc["reports"]) == 10

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "crossover", "--s", "1")
        assert rc == 0
        lines = out.splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        assert any("certified: true" in c for c in comments)
        assert data[0].startswith("d,")
        assert len(data) == 11  # header + d = 3..12

    def test_window_validation(self, capsys):
        rc, _, err = run(capsys, "crossover", "--s", "1", "--d-min", "9",
                         "--d-max", "3")
        assert rc == 2
        assert "d_min" in err


class TestEval:
    def test_single_bubble_on_manifold(self, capsys, tmp_path):
        cfgp = write_config(tmp_path, SINGLE)
        rc, out, _ = run(capsys, "eval", "--config", cfgp)
        assert rc == 0
        doc = json.loads(out)
        assert doc["be_quotient"] is None
        assert doc["m"]["value"] == pytest.approx(4.0, rel=1e-8)
        assert doc["dist_sq"] <= 1e-8 * doc["hs_norm_sq"]
        assert doc["provenance"]["tolerances"]["rel_tol"] == 1e-10

    def test_two_bubble_quotient(self, capsys, tmp_path):
        cfgp = write_config(tmp_path, PAIR)
        rc, out, _ = run(capsys, "eval", "--config", cfgp)
        doc = json.loads(out)
        assert rc == 0
        assert 0.0 < doc["be_quotient"] < compare(AMB31).c_two_peak
        assert len(doc["m"]["all_local_maxima"]) == 2

    def test_single_bubble_at_huge_scale(self, capsys, tmp_path):
        """At lambda = 1e200, lambda^2 overflows; the report must be the one
        at lambda = 3."""
        huge = dict(SINGLE, terms=[dict(SINGLE["terms"][0], **{"lambda": 1e200})])
        rc, out, err = run(capsys, "eval", "--config", write_config(tmp_path, huge))
        assert rc == 0, err
        _, ref, _ = run(capsys, "eval", "--config", write_config(tmp_path, SINGLE))
        got, ref = json.loads(out), json.loads(ref)
        assert got["hs_norm_sq"] == pytest.approx(ref["hs_norm_sq"], rel=1e-13)
        assert got["lp_norm"] == pytest.approx(ref["lp_norm"], rel=1e-12)
        assert got["m"]["value"] == pytest.approx(ref["m"]["value"], rel=1e-13)

    def test_far_collinear_pair_quotient_is_positive(self, capsys, tmp_path):
        """At separation 1e20 the pair has decoupled: its norm is
        (1 + 0.5^6)^(1/6) up to an interaction of 1e-20, and the certified
        quotient must stay positive."""
        doc = {
            "d": 3,
            "s": 1.0,
            "terms": [
                {"coeff": 1.0, "center": [0.0, 0.0, 0.0], "lambda": 1.0},
                {"coeff": -0.5, "center": [1e20, 0.0, 0.0], "lambda": 1.0},
            ],
        }
        rc, out, _ = run(capsys, "eval", "--config", write_config(tmp_path, doc))
        assert rc == 0
        doc = json.loads(out)
        assert doc["provenance"]["certified"] is True
        assert doc["lp_norm"] == pytest.approx((1.0 + 0.5**6) ** (1.0 / 6.0), rel=1e-12)
        assert doc["be_quotient"] > 0.0

    def test_far_pair_past_float_range_squared(self, capsys, tmp_path):
        """At separation 1e200 the squared separation overflows; the report
        must equal the decoupled one at 1e20, with nothing on stderr."""
        docs = []
        for sep in (1e20, 1e200):
            cfg = {
                "d": 3,
                "s": 1.0,
                "terms": [
                    {"coeff": 1.0, "center": [0.0, 0.0, 0.0], "lambda": 1.0},
                    {"coeff": -0.5, "center": [sep, 0.0, 0.0], "lambda": 1.0},
                ],
            }
            rc, out, err = run(
                capsys, "eval", "--config", write_config(tmp_path, cfg)
            )
            assert rc == 0
            assert err == ""
            docs.append(json.loads(out))
        near, far = docs
        assert far["provenance"]["certified"] is True
        assert far["m"]["value"] == pytest.approx(1.0, abs=1e-12)
        assert far["m"]["maximizer"] == near["m"]["maximizer"]
        assert far["be_quotient"] == pytest.approx(near["be_quotient"], abs=1e-12)

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        rc, _, err = run(capsys, "eval", "--config", str(tmp_path / "nope.json"))
        assert rc == 2
        assert "error:" in err

    def test_malformed_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 3, "s": 1.0, "terms": [')
        rc, out, err = run(capsys, "eval", "--config", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: malformed JSON in ")

    def test_schema_error_names_field(self, capsys, tmp_path):
        cfgp = write_config(tmp_path, {"d": 3, "s": 1.0, "terms": [{}]})
        rc, _, err = run(capsys, "eval", "--config", cfgp)
        assert rc == 2
        assert "terms[0]" in err

    def test_too_large_d_is_exit_2(self, capsys, tmp_path):
        cfgp = write_config(tmp_path, {"d": 10**400, "s": 1, "terms": []})
        rc, out, err = run(capsys, "eval", "--config", cfgp)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: d: ")

    def test_nonfinite_tolerance_is_exit_2(self, capsys, tmp_path):
        """An infinite rel_tol would accept the first, unrefined estimate."""
        cfgp = write_config(tmp_path, PAIR)
        rc, out, err = run(capsys, "eval", "--config", cfgp, "--rel-tol", "inf")
        assert rc == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("command", ["eval", "dist"])
    @pytest.mark.parametrize("lam", [1.0, 1.000000001], ids=["exact", "rounded"])
    def test_cancelling_terms_are_exit_2(self, capsys, tmp_path, command, lam):
        """B - B_lam has no quotient: at lam = 1 it is 0, and at
        1.000000001 hs_norm_sq rounds to 0.0."""
        doc = {
            "d": 3,
            "s": 1.0,
            "terms": [
                {"coeff": 1.0, "center": [0.0, 0.0, 0.0], "lambda": 1.0},
                {"coeff": -1.0, "center": [0.0, 0.0, 0.0], "lambda": lam},
            ],
        }
        rc, out, err = run(capsys, command, "--config", write_config(tmp_path, doc))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: the terms of u cancel")

    def test_unreachable_tolerance_is_exit_3_not_certified(self, capsys, tmp_path):
        cfgp = write_config(tmp_path, PAIR)
        rc, out, err = run(
            capsys, "eval", "--config", cfgp,
            "--rel-tol", "1e-16", "--abs-tol", "1e-300",
        )
        assert rc == 3
        doc = json.loads(out)
        assert doc["provenance"]["certified"] is False
        assert doc["error"].startswith("QuadratureNonConvergence")

    @pytest.mark.parametrize(
        "doc", [COLLINEAR_PAIR, COLLINEAR_TRIPLE], ids=["pair", "triple"]
    )
    def test_unreachable_tolerance_collinear_is_exit_3_not_certified(
        self, capsys, tmp_path, doc
    ):
        """A collinear pair integrates radially, at its conformal ratio; a
        triple is one cubature over (axial, radial) boxes, which refines to
        its floor of 1e-13 relative and must end the run there.  The
        document keeps the failed integral's best estimate, uncertified: the
        raw integral, which for the triple is int |u|^(2*) over R^3 and for
        the pair's radial integral that divided by |S^2| = 4 pi."""
        u = sobstab.superposition_from_dict(doc)
        cfgp = write_config(tmp_path, doc)
        rc, out, err = run(
            capsys, "eval", "--config", cfgp,
            "--rel-tol", "1e-16", "--abs-tol", "1e-300",
        )
        assert rc == 3
        doc = json.loads(out)
        assert doc["provenance"]["certified"] is False
        assert doc["error"].startswith("QuadratureNonConvergence")
        best = doc["best"]
        assert set(best) == {"certified", "error_estimate", "evaluations", "note", "value"}
        assert best["certified"] is False
        assert best["note"] == "value is the raw integral that failed, not the norm"
        assert isinstance(best["evaluations"], int) and best["evaluations"] > 0
        assert 0.0 < best["error_estimate"] < 1e-12 * best["value"]
        area = 1.0 if len(u.terms) > 2 else 4.0 * math.pi
        mass = sobstab.lp_norm(u) ** AMB31.two_star
        assert best["value"] * area == pytest.approx(mass, rel=1e-10, abs=0.0)


class TestDist:
    def test_payload(self, capsys, tmp_path):
        cfgp = write_config(tmp_path, PAIR)
        rc, out, _ = run(capsys, "dist", "--config", cfgp)
        doc = json.loads(out)
        assert rc == 0
        assert set(doc) == {"provenance", "hs_norm_sq", "m", "maximizer", "dist_sq"}
        assert doc["dist_sq"] > 0.0
        assert doc["maximizer"]["coeff"] == 1.0
        assert len(doc["maximizer"]["center"]) == 3

    @pytest.mark.parametrize("doc", [PAIR, COLLINEAR_PAIR], ids=["concentric", "collinear"])
    def test_fields_equal_eval(self, capsys, tmp_path, doc):
        cfgp = write_config(tmp_path, doc)
        _, out, _ = run(capsys, "dist", "--config", cfgp)
        dist = json.loads(out)
        _, out, _ = run(capsys, "eval", "--config", cfgp)
        full = json.loads(out)
        assert dist["provenance"] == full["provenance"]
        assert dist["hs_norm_sq"] == full["hs_norm_sq"]
        assert dist["m"] == full["m"]["value"]
        assert dist["maximizer"] == full["m"]["maximizer"]
        assert dist["dist_sq"] == full["dist_sq"]


EXPAND_GRID = "1e-2,5e-3,2e-3,1e-3,5e-4,2e-4,1e-4"


class TestExpand:
    def test_csv_shape_and_header(self, capsys):
        rc, out, _ = run(
            capsys, "expand", "--d", "3", "--s", "1", "--lambda", EXPAND_GRID
        )
        assert rc == 0
        lines = out.splitlines()
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        assert data[0] == (
            "lambda,hs_norm_sq,lp_norm_sq_2star,m,mu_of_lambda,dist_sq,be_value"
        )
        assert len(data) == 1 + 7
        fit_comments = [
            ln for ln in lines if ln.startswith("#") and "fitted_exponent" in ln
        ]
        assert len(fit_comments) == 1

    def test_manifold_row_has_empty_be(self, capsys):
        rc, out, _ = run(
            capsys, "expand", "--d", "3", "--s", "1",
            "--lambda", "1.0," + EXPAND_GRID,
        )
        assert rc == 0
        data = [
            ln for ln in out.splitlines() if ln and not ln.startswith("#")
        ][1:]
        first = data[0].split(",")
        assert first[0] == "1.0"
        assert first[-1] == ""  # be_value column empty on the manifold

    def test_json_format(self, capsys):
        rc, out, _ = run(
            capsys, "expand", "--d", "3", "--s", "1",
            "--lambda", EXPAND_GRID, "--format", "json",
        )
        doc = json.loads(out)
        assert rc == 0
        assert len(doc["points"]) == 7
        assert doc["fit"]["predicted_exponent"] == 0.5
        assert 0.3 < doc["fit"]["fitted_exponent"] < 0.8
        assert doc["provenance"]["certified"] is True

    def test_deterministic_output(self, capsys):
        args = ("expand", "--d", "3", "--s", "1", "--lambda", EXPAND_GRID)
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_jobs_do_not_change_output(self, capsys):
        args = ("expand", "--d", "3", "--s", "1", "--lambda", EXPAND_GRID)
        _, serial, _ = run(capsys, *args)
        _, parallel, _ = run(capsys, *args, "--jobs", "2")
        assert serial == parallel

    def test_csv_rows_equal_json_points(self, capsys):
        args = ("expand", "--d", "3", "--s", "1", "--lambda", "1.0," + EXPAND_GRID)
        _, csv_out, _ = run(capsys, *args)
        _, json_out, _ = run(capsys, *args, "--format", "json")
        header, *rows = [
            ln.split(",") for ln in csv_out.splitlines() if not ln.startswith("#")
        ]
        points = json.loads(json_out)["points"]
        assert len(rows) == len(points) == 8
        for row, point in zip(rows, points):
            assert set(header) == set(point)
            assert [None if c == "" else float(c) for c in row] == [
                point[key] for key in header
            ]

    def test_fit_threshold_is_two_peak_threshold(self, capsys):
        """The two formulas 2 - 2^(2/2*) and 2 - 2^((d-2s)/d) differ in the
        last bits at (3, 0.1); expand must report the thresholds value."""
        _, out, _ = run(capsys, "expand", "--d", "3", "--s", "0.1", "--format", "json")
        fit_threshold = json.loads(out)["fit"]["threshold"]
        _, out, _ = run(capsys, "thresholds", "--d", "3", "--s", "0.1")
        assert fit_threshold == json.loads(out)["c_two_peak"]

    def test_bad_lambda_is_exit_2(self, capsys):
        rc, _, err = run(
            capsys, "expand", "--d", "3", "--s", "1", "--lambda", "1e-2,-1.0"
        )
        assert rc == 2
        assert "lambda" in err

    def test_out_writes_csv_and_prints_fit(self, capsys, tmp_path):
        """With --out the CSV goes to the file and the fit JSON to stdout;
        without it, one stream carries the CSV and the fit as comments."""
        args = ("expand", "--d", "3", "--s", "1", "--lambda", EXPAND_GRID)
        _, single_stream, _ = run(capsys, *args)
        target = tmp_path / "e.csv"
        rc, out, _ = run(capsys, *args, "--out", str(target))
        assert rc == 0
        assert set(json.loads(out)) == {"fit"}
        fit_comments = "".join(f"# {line}\n" for line in out.rstrip().split("\n"))
        assert single_stream == target.read_text() + fit_comments

    def test_unreachable_tolerance_is_exit_3_not_certified(self, capsys):
        rc, out, _ = run(
            capsys, "expand", "--d", "3", "--s", "1", "--lambda", "1e-3,1e-4",
            "--rel-tol", "1e-16", "--abs-tol", "1e-300",
        )
        assert rc == 3
        doc = json.loads(out)
        assert doc["provenance"]["certified"] is False
        assert doc["provenance"]["ambient"] == {"d": 3, "s": 1.0}
        assert doc["error"].startswith("QuadratureNonConvergence")


class TestSweepGrid:
    def test_small_grid(self, capsys):
        rc, out, _ = run(
            capsys, "sweep-grid", "--d", "3", "--s", "1",
            "--c2", "1.0", "--lambda", "0.5", "--separation", "0,4",
        )
        assert rc == 0
        lines = out.splitlines()
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        assert data[0] == (
            "c2,lambda,separation,status,hs_norm_sq,lp_norm,m,dist_sq,"
            "sobolev_quotient,be_value,below_threshold"
        )
        assert len(data) == 3
        for row in data[1:]:
            cells = row.split(",")
            assert cells[3] == "ok"
            assert cells[10] in {"0", "1"}

    def test_on_manifold_row(self, capsys):
        rc, out, _ = run(
            capsys, "sweep-grid", "--d", "3", "--s", "1",
            "--c2", "1.0", "--lambda", "1.0", "--separation", "0",
        )
        assert rc == 0
        row = [
            ln for ln in out.splitlines() if ln and not ln.startswith("#")
        ][1].split(",")
        assert row[9] == ""  # be_value empty
        assert row[10] == "0"  # not flagged

    def test_negative_separation_is_exit_2(self, capsys):
        rc, _, err = run(
            capsys, "sweep-grid", "--d", "3", "--s", "1",
            "--c2", "1.0", "--lambda", "0.5", "--separation", "-1",
        )
        assert rc == 2
        assert "separation" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--c2", "0"),
            ("--c2", "nan"),
            ("--lambda", "inf"),
            ("--lambda", "-0.5"),
            ("--separation", "nan"),
            ("--separation", "inf"),
        ],
    )
    def test_invalid_value_is_exit_2_before_any_row(self, capsys, flag, value):
        grid = {"--c2": "1.0", "--lambda": "0.5", "--separation": "0"}
        grid[flag] = "1.0," + value
        argv = ["sweep-grid", "--d", "3", "--s", "1"]
        for name, values in grid.items():
            argv += [name, values]
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and value in err

    def test_cancelling_point_is_exit_2(self, capsys):
        """c2 = -1, lambda = 1, separation 0 is u = 0: no row is written."""
        rc, out, err = run(
            capsys, "sweep-grid", "--d", "3", "--s", "1",
            "--c2", "1.0,-1.0", "--lambda", "1", "--separation", "0",
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: grid point c2=-1.0 lambda=1.0 separation=0.0")
        assert "terms of u cancel" in err

    def test_unreachable_tolerance_is_exit_3_with_failed_row(self, capsys):
        rc, out, err = run(
            capsys, "sweep-grid", "--d", "3", "--s", "1",
            "--c2", "1.0", "--lambda", "0.5", "--separation", "0",
            "--rel-tol", "1e-16", "--abs-tol", "1e-300",
        )
        assert rc == 3
        lines = out.splitlines()
        assert "# certified: false" in lines
        _, row = [ln for ln in lines if ln and not ln.startswith("#")]
        cells = row.split(",")
        assert cells[:3] == ["1.0", "0.5", "0.0"]
        assert cells[3].startswith("QuadratureNonConvergence: ")
        assert cells[4:] == [""] * 7
        assert err == "sweep-grid: 1 grid point(s) failed\n"

    @pytest.mark.parametrize(
        "message", ["a, b", 'say "a"', "a\nb"], ids=["comma", "quote", "newline"]
    )
    def test_failed_row_message_is_quoted(self, capsys, monkeypatch, message):
        """A failed point's message is one RFC 4180 cell, whatever it holds."""

        def fail(u, cfg):
            raise QuadratureNonConvergence(message)

        monkeypatch.setattr("sobstab.functional.functional_report", fail)
        rc, out, _ = run(
            capsys, "sweep-grid", "--d", "3", "--s", "1",
            "--c2", "1.0", "--lambda", "0.5", "--separation", "0",
        )
        assert rc == 3
        body = "".join(
            ln for ln in out.splitlines(keepends=True) if not ln.startswith("#")
        )
        status = f"QuadratureNonConvergence: {message}"
        _, row = csv.reader(io.StringIO(body))
        assert row == ["1.0", "0.5", "0.0", status] + [""] * 7
        quoted = '"' + status.replace('"', '""') + '"'
        assert body.split("\n", 1)[1] == f"1.0,0.5,0.0,{quoted},,,,,,,\n"


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "sobstab" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["expand", "--d", "3", "--s", "1", "--lambda", "1e-2,abc"],
                "error: --lambda: could not parse '1e-2,abc' as floats",
            ),
            (
                ["sweep-grid", "--d", "3", "--s", "1", "--c2", ",",
                 "--lambda", "0.5", "--separation", "0"],
                "error: --c2: empty list",
            ),
        ],
        ids=["unparsable", "empty"],
    )
    def test_bad_float_list_is_exit_2(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err == message + "\n"


def _eval_probe(doc):
    """Probe code that runs `eval` in-process on the superposition doc."""
    return (
        "import json, os, tempfile\nfrom sobstab.cli import main\n"
        "with tempfile.NamedTemporaryFile('w', suffix='.json', delete=False) as fh:\n"
        f"    json.dump({doc!r}, fh)\n"
        "try:\n"
        "    assert main(['eval', '--config', fh.name, '--out', os.devnull]) == 0\n"
        "finally:\n    os.unlink(fh.name)"
    )


SIGNED_CONCENTRIC = {
    "d": 3,
    "s": 1.0,
    "terms": [
        {"coeff": 1.0, "center": [0.0, 0.0, 0.0], "lambda": 1.0},
        {"coeff": -0.7, "center": [0.0, 0.0, 0.0], "lambda": 0.1},
    ],
}


def _cli_probe(argv):
    """Probe code that runs the CLI as `python -m sobstab.cli` and checks
    that it exits 0."""
    return (
        f"import runpy\nsys.argv = ['sobstab', *{argv!r}]\n"
        "try:\n    runpy.run_module('sobstab.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code"
    )


def _run_probe(code, blocked=None):
    """Run probe code in a fresh interpreter on this checkout's sources,
    with the module `blocked` made unimportable."""
    block = f"sys.modules[{blocked!r}] = None\n" if blocked else ""
    src = str(Path(sobstab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", f"import sys\n{block}{code}"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )


def _assert_same_output_without(code, blocked):
    """The probe exits 0 with the same, non-empty output whether or not the
    module `blocked` can be imported."""
    outputs = []
    for block in (None, blocked):
        proc = _run_probe(code, block)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0]
    assert outputs[1] == outputs[0]


class TestImportCost:
    """No part of the toolkit needs scipy.optimize: neither importing the
    package, nor a closed-form command, nor the m-search of `eval` on any
    geometry may load it.  Importing the package and the closed-form
    commands load no numpy either."""

    @pytest.mark.parametrize(
        "code",
        [
            "import sobstab",
            _cli_probe(["constants", "--d", "3", "--s", "1"]),
            _eval_probe(SIGNED_CONCENTRIC),
            _eval_probe(COLLINEAR_PAIR),
        ],
        ids=["import", "cli-constants", "eval-signed-concentric", "eval-collinear"],
    )
    def test_scipy_optimize_not_loaded(self, code):
        proc = _run_probe(f"{code}\nprint('scipy.optimize' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize(
        "argv",
        [
            None,
            ["constants", "--d", "5", "--s", "1"],
            ["thresholds", "--d", "7", "--s", "1"],
            ["crossover", "--s", "1"],
            ["eval", "--config", "CONFIG"],
            ["dist", "--config", "CONFIG"],
            ["expand", "--d", "3", "--s", "1"],
            ["sweep-grid", "--d", "3", "--s", "1", "--c2", "0.7",
             "--lambda", "0.5", "--separation", "0,2"],
        ],
        ids=["import", "constants", "thresholds", "crossover", "eval", "dist",
             "expand", "sweep-grid"],
    )
    def test_runs_without_scipy(self, tmp_path, argv):
        """scipy is no runtime dependency: with it made unimportable, the
        package imports and every subcommand exits 0 with the output it
        gives when scipy is there."""
        if argv is None:
            code = "import sobstab\nprint(sorted(sobstab.__all__))"
        else:
            config = write_config(tmp_path, COLLINEAR_TRIPLE)
            code = _cli_probe([config if a == "CONFIG" else a for a in argv])
        _assert_same_output_without(code, "scipy")

    @pytest.mark.parametrize(
        "argv",
        [
            None,
            ["--version"],
            ["constants", "--d", "5", "--s", "1"],
            ["thresholds", "--d", "7", "--s", "1"],
            ["crossover", "--s", "1"],
            ["crossover", "--s", "1", "--format", "json"],
        ],
        ids=["import", "version", "constants", "thresholds", "crossover-csv",
             "crossover-json"],
    )
    def test_light_path_runs_without_numpy(self, argv):
        """With numpy made unimportable, the package and its closed-form
        names import and the closed-form commands exit 0 with the output
        they give when numpy is there."""
        if argv is None:
            code = (
                "import sobstab\nprint(sorted(sobstab.__all__))\n"
                "print(sobstab.compare(sobstab.Ambient(7, 1.0)))\n"
                "print(sobstab.QuotientVerdict, sobstab.QuadratureNonConvergence)"
            )
        else:
            code = _cli_probe(argv)
        _assert_same_output_without(code, "numpy")

    def test_eval_needs_numpy(self, tmp_path):
        """The control of the probe above: the blocker does block numpy."""
        code = _cli_probe(["eval", "--config", write_config(tmp_path, PAIR)])
        assert _run_probe(code).returncode == 0
        proc = _run_probe(code, "numpy")
        assert proc.returncode != 0
        assert "import of numpy halted" in proc.stderr
