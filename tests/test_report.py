import json
import math
from fractions import Fraction

import pytest

import ergopt as eo
from ergopt import cli, report
from ergopt.errors import ParseError, ValidationError

from conftest import read_report

PHI = (1 + math.sqrt(5)) / 2

FIB_COCYCLE = {
    "d": 2,
    "memory": 1,
    "matrices": {"0": [[1, 1], [0, 1]], "1": [[1, 0], [1, 1]]},
}

STEP_POTENTIAL = {"memory": 1, "values": {"0": "0", "1": "1"}}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestParsing:
    def test_scalar_literals(self):
        assert report._parse_scalar("3/4") == Fraction(3, 4)
        assert report._parse_scalar(2) == Fraction(2)
        assert report._parse_scalar(0.25) == 0.25
        with pytest.raises(ParseError):
            report._parse_scalar("1/0")
        with pytest.raises(ParseError):
            report._parse_scalar("abc")

    @pytest.mark.parametrize("x", [[1], None, True, math.inf, math.nan])
    def test_non_scalars_are_parse_errors(self, x):
        with pytest.raises(ParseError):
            report._parse_scalar(x)

    def test_typed_config_values(self):
        with pytest.raises(ValidationError):
            report._require({}, "n_max")
        assert report._require({}, "n_max", int, 24) == 24
        assert type(report._require({"gap_tol": 1}, "gap_tol", float)) is float
        for value, kind in [(True, int), (2.0, int), ("2", int), (10**400, float),
                            (math.inf, float), (None, str), ({}, list)]:
            with pytest.raises(ParseError):
                report._require({"key": value}, "key", kind)

    def test_num_provenance(self):
        assert report.num(Fraction(1, 3)) == {
            "value": "1/3", "provenance": "exact-rational"}
        assert report.num(0.5) == {"value": 0.5, "provenance": "float"}
        assert report.bracket_num(0.0, 1.0)["provenance"] == "bracket"

    def test_digest_ignores_output_keys(self):
        base = {"system": {"alphabet": 2}, "experiment": "beta",
                "params": {"n_max": 4}}
        d1 = report.config_digest(base)
        d2 = report.config_digest({**base, "out": {"series": "x.csv"}})
        d3 = report.config_digest({**base, "params": {"n_max": 5}})
        assert d1 == d2
        assert d1 != d3

    def test_parse_system_golden(self):
        space = report.parse_system(
            {"alphabet": 2, "transitions": [[True, True], [True, False]]})
        assert not space.is_full


class TestExperiments:
    def test_beta_report(self, tmp_path):
        cfg = {
            "system": {"alphabet": 2},
            "cocycle": FIB_COCYCLE,
            "experiment": "beta",
            "params": {"n_max": 12, "p_max": 4},
        }
        body, rows, cached = report.run_config(cfg)
        res = body["results"]
        lo, hi = res["bracket"]["value"]
        assert lo == pytest.approx(math.log(PHI), rel=1e-12)
        assert hi - lo <= 0.02
        assert res["witness"] == "01"
        assert res["unique_at_resolution"] is True
        assert body["norm_tag"] == "spectral-2"
        assert not cached
        assert rows[0] == ("kind", "n_or_p", "value")

    def test_birkhoff_report(self):
        cfg = {
            "system": {"alphabet": 2},
            "potential": STEP_POTENTIAL,
            "experiment": "birkhoff",
            "params": {},
        }
        body, _, _ = report.run_config(cfg)
        res = body["results"]
        assert res["beta"] == {"value": "1/1", "provenance": "exact-rational"}
        assert res["unique"] is True
        assert res["critical_cycles"] == ["1"]

    def test_explicit_eps_grid(self):
        cfg = {"system": {"alphabet": 2}, "potential": STEP_POTENTIAL, "experiment": "perturb",
               "params": {"gamma": {"memory": 1, "values": {"0": "1", "1": "0"}},
                          "eps": ["1/2", "1/4", 0.125]}}
        body, rows, _ = report.run_config(cfg)
        assert [e["value"] for e in body["results"]["epsilons"]] == ["1/2", "1/4", 0.125]
        assert len(rows) == 4

    def test_one_measure_lambda_has_no_gap(self):
        """A one-measure family has an infinite gap, which is not JSON: the
        body holds null."""
        cfg = {"system": {"alphabet": 2}, "cocycle": FIB_COCYCLE, "experiment": "lambda",
               "params": {"seed": 3, "measures": [{"cycle": "01"}], "trials": 10}}
        body, _, _ = report.run_config(cfg)
        assert body["results"]["gap"] is None
        assert body["results"]["trials_invariant"] == 10
        json.loads(report.serialize_body(body), parse_constant=pytest.fail)

    def test_non_finite_result_is_refused(self):
        with pytest.raises(ValidationError):
            report.serialize_body({"value": math.inf})

    def test_config_needs_cocycle_or_potential(self):
        with pytest.raises(ValidationError):
            report.run_config({"system": {"alphabet": 2}, "experiment": "beta"})

    def test_measure_needs_cycle_or_stochastic(self):
        with pytest.raises(ValidationError):
            report.parse_measure(eo.new_shift(2), {"weights": [1]})

    def test_config_must_be_an_object(self):
        with pytest.raises(ParseError):
            report.run_config([{"experiment": "beta"}])

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError):
            report.run_config({"system": {"alphabet": 2}, "experiment": "nope"})

    def test_flatten_report(self):
        cfg = {
            "system": {"alphabet": 2},
            "experiment": "flatten",
            "params": {"values": ["1", "99/100", "-1"], "n": 1},
        }
        body, _, _ = report.run_config(cfg)
        res = body["results"]
        assert res["distance"] == {"value": "1/2", "provenance": "exact-rational"}
        assert res["argmax_count"] == 2

    def test_measure_report(self):
        cfg = {
            "system": {"alphabet": 2},
            "potential": STEP_POTENTIAL,
            "experiment": "measure",
            "params": {
                "measures": [{"cycle": "0"}, {"cycle": "1"}],
                "i_max": 6,
            },
        }
        body, _, _ = report.run_config(cfg)
        res = body["results"]
        assert res["argmax"] == [1]
        pair = res["weakstar_distances"][0]
        assert pair["distance"]["value"] == pytest.approx(0.890625)


class TestCache:
    def cfg(self):
        return {
            "system": {"alphabet": 2},
            "potential": STEP_POTENTIAL,
            "experiment": "birkhoff",
            "params": {},
        }

    def test_second_run_hits(self, tmp_path):
        body1, _, c1 = report.run_config(self.cfg(), cache_dir=tmp_path)
        body2, _, c2 = report.run_config(self.cfg(), cache_dir=tmp_path)
        assert not c1 and c2
        assert report.serialize_body(body1) == report.serialize_body(body2)

    def test_changed_params_miss(self, tmp_path):
        _, _, _ = report.run_config(self.cfg(), cache_dir=tmp_path)
        other = self.cfg()
        other["params"] = {"p_max": 3}
        _, _, cached = report.run_config(other, cache_dir=tmp_path)
        assert not cached

    def test_corrupt_entry_recomputed(self, tmp_path):
        cfg = self.cfg()
        report.run_config(cfg, cache_dir=tmp_path)
        digest = report.config_digest(cfg)
        (tmp_path / f"{digest}.json").write_text("{not json")
        body, _, cached = report.run_config(cfg, cache_dir=tmp_path)
        assert not cached
        assert body["results"]["beta"]["value"] == "1/1"

    def test_entry_of_another_digest_is_recomputed(self, tmp_path):
        cfg = self.cfg()
        digest = report.config_digest(cfg)
        (tmp_path / f"{digest}.json").write_text(json.dumps({"config_digest": "0" * 64}))
        assert report.cache_lookup(digest, tmp_path) is None
        (tmp_path / f"{digest}.json").write_text("[1]")
        assert report.cache_lookup(digest, tmp_path) is None
        _, _, cached = report.run_config(cfg, cache_dir=tmp_path)
        assert not cached


class TestDeterminism:
    def test_probe_reruns_byte_identical(self):
        cfg = {
            "system": {"alphabet": 2},
            "potential": STEP_POTENTIAL,
            "experiment": "probe",
            "params": {"seed": 42, "n_samples": 10, "delta": 0.05},
        }
        b1, _, _ = report.run_config(cfg)
        b2, _, _ = report.run_config(cfg)
        assert report.serialize_body(b1) == report.serialize_body(b2)

    def test_threads_do_not_change_beta_body(self):
        cfg = {
            "system": {"alphabet": 2},
            "cocycle": FIB_COCYCLE,
            "experiment": "beta",
            "params": {"n_max": 10, "p_max": 4},
        }
        b1, _, _ = report.run_config(cfg, threads=1)
        b2, _, _ = report.run_config(cfg, threads=2)
        assert report.serialize_body(b1) == report.serialize_body(b2)


class TestCli:
    def test_end_to_end(self, tmp_path):
        series = tmp_path / "series.csv"
        cfg = {
            "system": {"alphabet": 2},
            "cocycle": FIB_COCYCLE,
            "experiment": "beta",
            "params": {"n_max": 8, "p_max": 4},
            "out": {"series": str(series)},
        }
        out = tmp_path / "report.json"
        code = cli.main(["--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)])
        assert code == 0
        rep = read_report(out)
        assert rep["cached"] is False
        assert rep["body"]["experiment"] == "beta"
        assert series.read_text().startswith("kind,n_or_p,value")

    def test_irregular_series_is_written_only_when_asked(self, tmp_path):
        """N + 1 lines, header first, each value the series value exactly;
        without out.series nothing is written beside the report."""
        cfg = {
            "system": {"alphabet": 2},
            "cocycle": FIB_COCYCLE,
            "experiment": "irregular",
            "params": {"c1": "01", "c2": "001", "ratio": 3.0, "depth": 6, "N": 3000},
        }
        space = eo.new_shift(2)
        A = report.parse_cocycle(space, FIB_COCYCLE)
        schedule = eo.build_irregular_point(space, A, eo.make_cycle(space, (0, 1)),
                                            eo.make_cycle(space, (0, 0, 1)), r=3.0, J=6)
        want = eo.finite_time_exponents(space, A, schedule, 3000)

        bare = tmp_path / "bare"
        bare.mkdir()
        report.run(write_config(bare, cfg), bare / "report.json")
        assert sorted(p.name for p in bare.iterdir()) == ["cfg.json", "report.json"]

        series = tmp_path / "series.csv"
        cfg["out"] = {"series": str(series)}
        report.run(write_config(tmp_path, cfg), tmp_path / "report.json")
        lines = series.read_text().splitlines()
        assert len(lines) == 3001
        assert lines[0] == "n,exponent"
        assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in range(1, 3001)]
        assert [float(line.split(",")[1]) for line in lines[1:]] == want.tolist()

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        out = tmp_path / "err.json"
        code = cli.main(["--config", str(bad), "--out", str(out)])
        assert code == 2
        payload = read_report(out)
        assert payload["error"]["code"] == "ParseError"

    @pytest.mark.parametrize("cfg, error", [
        ({"potential": STEP_POTENTIAL, "experiment": "birkhoff", "params": {"p_max": 0}},
         "ValidationError"),
        ({"potential": STEP_POTENTIAL, "experiment": "probe",
          "params": {"n_samples": 2, "delta": 0.1, "seed": 1, "p_max": 0}}, "ValidationError"),
        ({"potential": {"memory": 0, "values": {"0": "0", "1": "1"}},
          "experiment": "birkhoff", "params": {}}, "ValidationError"),
        ({"cocycle": {**FIB_COCYCLE, "memory": 0}, "experiment": "beta", "params": {}},
         "ValidationError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "lambda",
          "params": {"seed": 1, "measures": [{"cycle": "0101"}, {"cycle": "0"}]}},
         "ValidationError"),
        # e^800 I and, for -800, its inverse e^800 I are past float64
        ({"potential": {"memory": 1, "values": {"0": "800", "1": "0"}},
          "experiment": "beta", "params": {"d": 2}}, "ValidationError"),
        ({"potential": {"memory": 1, "values": {"0": "-800", "1": "0"}},
          "experiment": "beta", "params": {"d": 2}}, "ValidationError"),
        # values of the wrong type; NaN and Infinity stand for what JSON
        # numbers such as 1e309 parse to
        ({"cocycle": FIB_COCYCLE, "experiment": "beta", "params": {"n_max": "abc"}}, "ParseError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "beta", "params": {"n_max": None}}, "ParseError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "beta", "params": {"n_max": 2.7}}, "ParseError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "beta", "params": [1, 2]}, "ParseError"),
        ({"system": {"alphabet": "2"}, "cocycle": FIB_COCYCLE, "experiment": "beta"},
         "ParseError"),
        ({"cocycle": {**FIB_COCYCLE, "matrices": {"0": [[1, 1], [0]], "1": [[1, 0], [1, 1]]}},
          "experiment": "beta"}, "ParseError"),
        ({"cocycle": {**FIB_COCYCLE, "matrices": {"x": [[1, 1], [0, 1]], "1": [[1, 0], [1, 1]]}},
          "experiment": "beta"}, "ParseError"),
        ({"potential": {"memory": 1, "values": ["0", "1"]}, "experiment": "birkhoff"},
         "ParseError"),
        ({"potential": {"memory": 1, "values": {"0": math.inf, "1": "0"}},
          "experiment": "birkhoff"}, "ParseError"),
        ({"potential": STEP_POTENTIAL, "experiment": "perturb",
          "params": {"gamma": STEP_POTENTIAL, "eps": 0.5}}, "ParseError"),
        ({"potential": STEP_POTENTIAL, "experiment": "probe",
          "params": {"n_samples": 2, "delta": "nan", "seed": 1}}, "ParseError"),
        ({"potential": STEP_POTENTIAL, "experiment": "probe",
          "params": {"n_samples": 2, "delta": math.inf, "seed": 1}}, "ParseError"),
        ({"potential": STEP_POTENTIAL, "experiment": "probe",
          "params": {"n_samples": 2, "delta": math.nan, "seed": 1}}, "ParseError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "beta", "params": {"gap_tol": math.nan}},
         "ParseError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "beta", "params": {"slack": math.nan}},
         "ParseError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "beta", "out": {"series": 3}}, "ParseError"),
        # array entries go through the same typed check as scalar values
        ({"cocycle": {**FIB_COCYCLE, "matrices": {"0": [["1", 1], [0, 1]], "1": [[1, 0], [1, 1]]}},
          "experiment": "beta"}, "ParseError"),
        ({"cocycle": {**FIB_COCYCLE, "matrices": {"0": [[1, True], [0, 1]], "1": [[1, 0], [1, 1]]}},
          "experiment": "beta"}, "ParseError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "measure",
          "params": {"measures": [{"stochastic": [[0.5, 0.5], [0.5, "0.5"]]}]}}, "ParseError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "measure",
          "params": {"measures": [{"stochastic": [[0.5, 0.5], [0.5, 0.5]],
                                   "stationary": [True, 0]}]}}, "ParseError"),
        # values of the right type out of range
        ({"potential": STEP_POTENTIAL, "experiment": "probe",
          "params": {"n_samples": 2, "delta": 0.1, "seed": -1}}, "InvalidArgument"),
        ({"cocycle": FIB_COCYCLE, "experiment": "lambda",
          "params": {"seed": 1, "measures": [{"cycle": "0"}, {"stochastic": [[0.5, 0.5], [0.5, 0.5]]}]}},
         "ValidationError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "lambda",
          "params": {"seed": 1, "measures": [{"cycle": "0"}, {}]}}, "ValidationError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "lambda",
          "params": {"seed": 1, "measures": [{"cycle": "0"}], "trials": -5}}, "ValidationError"),
        ({"cocycle": FIB_COCYCLE, "experiment": "measure",
          "params": {"measures": [{"stochastic": [[1, 0]]}]}}, "ShapeMismatch"),
        ({"cocycle": FIB_COCYCLE, "experiment": "measure",
          "params": {"measures": [{"stochastic": [[0.5, 0.5], [0.5, 0.5]]}], "n_max": 0}},
         "ValidationError"),
    ], ids=["birkhoff_p_max_0", "exact_probe_p_max_0", "potential_memory_0",
            "cocycle_memory_0", "lambda_non_primitive_cycle", "weighted_step_overflows",
            "weighted_inverse_overflows", "n_max_string", "n_max_null", "n_max_fraction",
            "params_array", "alphabet_string", "ragged_matrix", "matrix_key_not_a_word",
            "values_array", "potential_value_infinite", "eps_number", "delta_string_nan",
            "delta_infinite", "delta_nan", "gap_tol_nan", "slack_nan", "series_path_number",
            "matrix_string_entry", "matrix_boolean_entry", "stochastic_string_entry",
            "stationary_boolean_entry",
            "seed_negative", "lambda_markov_measure", "lambda_measure_without_cycle",
            "trials_negative", "stochastic_one_row", "measure_n_max_0"])
    def test_bad_config_exits_2_with_an_error_report(self, tmp_path, cfg, error):
        out = tmp_path / "err.json"
        code = cli.main(["--config", str(write_config(tmp_path, {"system": {"alphabet": 2}, **cfg})),
                         "--out", str(out)])
        assert code == 2
        assert read_report(out)["error"]["code"] == error

    def test_unreadable_config_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            report.run(tmp_path / "missing.json", tmp_path / "report.json")
        out = tmp_path / "err.json"
        assert cli.main(["--config", str(tmp_path), "--out", str(out)]) == 2
        assert read_report(out)["error"]["code"] == "ParseError"

    def test_series_directory_is_created(self, tmp_path):
        series = tmp_path / "new" / "dir" / "series.csv"
        cfg = {"system": {"alphabet": 2}, "cocycle": FIB_COCYCLE, "experiment": "beta",
               "params": {"n_max": 4, "p_max": 4}, "out": {"series": str(series)}}
        out = tmp_path / "report.json"
        assert cli.main(["--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert series.read_text().startswith("kind,n_or_p,value")

    def test_eleven_letters_name_letter_ten(self, tmp_path):
        """Memory-words are named by `word_to_str`, so letter 10 is "10,",
        apart from the two-letter word "10"; the unique maximiser, the
        fixed point at 10, reads back as (10,)."""
        values = {eo.word_to_str((a,)): str(a) for a in range(11)}
        assert "10," in values and "10" not in values
        cfg = {"system": {"alphabet": 11}, "experiment": "birkhoff",
               "potential": {"memory": 1, "values": values}}
        out = tmp_path / "report.json"
        assert cli.main(["--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        res = read_report(out)["body"]["results"]
        assert res["beta"]["value"] == "10/1" and res["unique"] is True
        assert [eo.str_to_word(c) for c in res["critical_cycles"]] == [(10,)]

    def test_large_weight_stays_exact_at_d_1(self, tmp_path):
        """At d = 1 the weight is read as a rational potential and no float
        step e^800 is formed, so the config that overflows at d = 2 runs."""
        cfg = {"system": {"alphabet": 2}, "experiment": "beta", "params": {"d": 1},
               "potential": {"memory": 1, "values": {"0": "800", "1": "0"}}}
        out = tmp_path / "report.json"
        assert cli.main(["--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert read_report(out)["body"]["results"]["beta_exact"]["value"] == "800/1"

    def test_budget_exhaustion_exits_3(self, tmp_path):
        cfg = {
            "system": {"alphabet": 2},
            "cocycle": FIB_COCYCLE,
            "experiment": "beta",
            "params": {"n_max": 2, "p_max": 2, "word_budget": 1},
        }
        out = tmp_path / "err.json"
        code = cli.main(["--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)])
        assert code == 3
        payload = read_report(out)
        assert payload["error"]["code"] == "BudgetExceeded"

    def test_cache_dir_flag(self, tmp_path):
        cfg = {
            "system": {"alphabet": 2},
            "potential": STEP_POTENTIAL,
            "experiment": "birkhoff",
            "params": {},
        }
        cfg_path = write_config(tmp_path, cfg)
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["--config", str(cfg_path), "--out", str(out1),
                         "--cache-dir", str(cache)]) == 0
        assert cli.main(["--config", str(cfg_path), "--out", str(out2),
                         "--cache-dir", str(cache)]) == 0
        assert read_report(out1)["cached"] is False
        assert read_report(out2)["cached"] is True
