import json
import math
from fractions import Fraction

import pytest

import ergopt as eo
from ergopt import cli, report
from ergopt.errors import ParseError, ValidationError

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
        rep = json.loads(out.read_text())
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
        payload = json.loads(out.read_text())
        assert payload["error"]["code"] == "ParseError"

    @pytest.mark.parametrize("cfg", [
        {"potential": STEP_POTENTIAL, "experiment": "birkhoff", "params": {"p_max": 0}},
        {"potential": STEP_POTENTIAL, "experiment": "probe",
         "params": {"n_samples": 2, "delta": 0.1, "seed": 1, "p_max": 0}},
        {"potential": {"memory": 0, "values": {"0": "0", "1": "1"}},
         "experiment": "birkhoff", "params": {}},
        {"cocycle": {**FIB_COCYCLE, "memory": 0}, "experiment": "beta", "params": {}},
        {"cocycle": FIB_COCYCLE, "experiment": "lambda",
         "params": {"seed": 1, "measures": [{"cycle": "0101"}, {"cycle": "0"}]}},
        # e^800 I and, for -800, its inverse e^800 I are past float64
        {"potential": {"memory": 1, "values": {"0": "800", "1": "0"}},
         "experiment": "beta", "params": {"d": 2}},
        {"potential": {"memory": 1, "values": {"0": "-800", "1": "0"}},
         "experiment": "beta", "params": {"d": 2}},
    ], ids=["birkhoff_p_max_0", "exact_probe_p_max_0", "potential_memory_0",
            "cocycle_memory_0", "lambda_non_primitive_cycle", "weighted_step_overflows",
            "weighted_inverse_overflows"])
    def test_bad_config_exits_2_with_an_error_report(self, tmp_path, cfg):
        out = tmp_path / "err.json"
        code = cli.main(["--config", str(write_config(tmp_path, {"system": {"alphabet": 2}, **cfg})),
                         "--out", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["error"]["code"] == "ValidationError"

    def test_large_weight_stays_exact_at_d_1(self, tmp_path):
        """At d = 1 the weight is read as a rational potential and no float
        step e^800 is formed, so the config that overflows at d = 2 runs."""
        cfg = {"system": {"alphabet": 2}, "experiment": "beta", "params": {"d": 1},
               "potential": {"memory": 1, "values": {"0": "800", "1": "0"}}}
        out = tmp_path / "report.json"
        assert cli.main(["--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["body"]["results"]["beta_exact"]["value"] == "800/1"

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
        payload = json.loads(out.read_text())
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
        assert json.loads(out1.read_text())["cached"] is False
        assert json.loads(out2.read_text())["cached"] is True
