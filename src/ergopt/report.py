"""Experiment dispatch and deterministic reporting.

Configs are JSON; reports are JSON with a stable config digest and a body
that is byte-reproducible for a fixed (config, seed, version); series go
to CSV for external plotting.  Exact rationals are serialized as "p/q"
strings and every numeric result carries a provenance tag.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import math
import time
from fractions import Fraction
from numbers import Rational
from pathlib import Path

import numpy as np

from . import __version__
from .cocycle import MatrixCocycle, ScalarPotential, from_potential
from .errors import ParseError, ValidationError
from .irregular import (
    block_oscillation,
    build_irregular_point,
    finite_time_exponents,
    oscillation,
)
from .measures import (
    MeasureSpec,
    PeriodicMeasure,
    markov_measure,
    restricted_beta,
    weakstar_distance,
)
from .optimize import (
    NORM_TAG,
    critical_graph,
    karp_beta,
    matrix_candidates,
    maximizing_cycles,
)
from .perturb import (
    flatten_top,
    identity_system,
    perturbation_sweep,
    stability_radius,
    uniqueness_probe,
)
from .shift import Cycle, ShiftSpace, make_cycle, new_shift, str_to_word, word_to_str

log = logging.getLogger("ergopt")

EXPERIMENTS = ("beta", "birkhoff", "perturb", "probe", "lambda", "irregular",
               "flatten", "measure")


# ---------------------------------------------------------------------------
# value (de)serialization


def _parse_scalar(x):
    if isinstance(x, str):
        try:
            if "/" in x:
                num, den = x.split("/")
                return Fraction(int(num), int(den))
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {x!r}") from exc
    if isinstance(x, bool):
        raise ParseError("boolean is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) and math.isfinite(x):
        return x
    raise ParseError(f"cannot parse scalar {x!r}")


def num(v, provenance: str | None = None) -> dict:
    """Wrap a numeric result with its provenance tag."""
    if isinstance(v, Rational) and not isinstance(v, float):
        f = Fraction(v)
        return {"value": f"{f.numerator}/{f.denominator}", "provenance": "exact-rational"}
    return {"value": float(v), "provenance": provenance or "float"}


def bracket_num(lo: float, hi: float) -> dict:
    return {"value": [float(lo), float(hi)], "provenance": "bracket"}


# ---------------------------------------------------------------------------
# config parsing


_ABSENT = object()
_KINDS = {int: "an integer", float: "a finite number", str: "a string", list: "an array",
          dict: "an object"}


def _typed(value, kind: type, what: str):
    """value, which must be of `kind` (int: an integer; float: a finite
    number, returned as a float; a bool is neither), else a ParseError."""
    if kind is float and type(value) is int:
        value = float(value) if abs(value) < 1e308 else math.inf
    if (isinstance(value, bool) or not isinstance(value, kind)
            or (kind is float and not math.isfinite(value))):
        raise ParseError(f"{what} must be {_KINDS[kind]}, got {value!r:.40}")
    return value


def _require(cfg: dict, key: str, kind: type | None = None, default=_ABSENT):
    """cfg[key], checked by `_typed` when a kind is given, or `default` when
    the key is absent; a missing key without a default is a ValidationError."""
    if key not in cfg:
        if default is _ABSENT:
            raise ValidationError(f"missing config key {key!r}")
        return default
    return cfg[key] if kind is None else _typed(cfg[key], kind, f"config key {key!r}")


def _array(value, what: str) -> np.ndarray:
    """A JSON array of finite numbers, or of equal-length arrays of them,
    as a float array; each number is checked by `_typed`, so a string or a
    boolean entry is a ParseError, as is a ragged array."""
    def leaves(x):
        return [leaves(y) for y in x] if isinstance(x, list) else _typed(x, float, f"{what} entry")
    try:
        return np.array(leaves(_typed(value, list, what)), dtype=float)
    except ValueError:
        raise ParseError(f"{what} must be an array of finite numbers") from None


def parse_system(spec: dict) -> ShiftSpace:
    k = _require(spec, "alphabet", int)
    trans = _require(spec, "transitions", default="full")
    if trans == "full":
        return new_shift(k)
    if not (isinstance(trans, list) and all(isinstance(row, list) for row in trans)):
        raise ParseError("transitions must be 'full' or an array of arrays")
    return new_shift(k, trans)


def parse_potential(space: ShiftSpace, spec: dict) -> ScalarPotential:
    memory = _require(spec, "memory", int)
    values = _require(spec, "values", dict)
    table = {str_to_word(w): _parse_scalar(v) for w, v in values.items()}
    return ScalarPotential(space, memory, table)


def parse_cocycle(space: ShiftSpace, spec: dict) -> MatrixCocycle:
    d = _require(spec, "d", int)
    memory = _require(spec, "memory", int)
    matrices = _require(spec, "matrices", dict)
    table = {str_to_word(w): _array(rows, f"matrix {w!r}") for w, rows in matrices.items()}
    return MatrixCocycle(space, d, memory, table)


def parse_measure(space: ShiftSpace, spec: dict) -> MeasureSpec:
    spec = _typed(spec, dict, "a measure")
    if "cycle" in spec:
        return PeriodicMeasure(space, _parse_cycle(space, _require(spec, "cycle", str)))
    if "stochastic" in spec:
        stationary = _require(spec, "stationary", default=None)
        return markov_measure(space, _array(spec["stochastic"], "stochastic"),
                              None if stationary is None else _array(stationary, "stationary"))
    raise ValidationError("measure spec needs 'cycle' or 'stochastic'")


def _parse_cycle(space: ShiftSpace, s: str) -> Cycle:
    return make_cycle(space, str_to_word(s))


def config_digest(cfg: dict) -> str:
    body = {k: cfg[k] for k in ("system", "cocycle", "potential", "experiment", "params")
            if k in cfg}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# experiments


def _get_cocycle(space: ShiftSpace, cfg: dict, params: dict) -> MatrixCocycle:
    if "cocycle" in cfg:
        return parse_cocycle(space, _require(cfg, "cocycle", dict))
    if "potential" in cfg:
        f = parse_potential(space, _require(cfg, "potential", dict))
        return from_potential(f, d=_require(params, "d", int, 1))
    raise ValidationError("config needs 'cocycle' or 'potential'")


def _exp_beta(space, cfg, params):
    report = matrix_candidates(
        space, _get_cocycle(space, cfg, params),
        n_max=_require(params, "n_max", int, 24), p_max=_require(params, "p_max", int, 12),
        slack=_require(params, "slack", float, 1e-6),
        gap_tol=_require(params, "gap_tol", float, 1e-3),
        budget=_require(params, "word_budget", int, 10_000_000))
    br = report.bracket
    results = {
        "bracket": bracket_num(br.lower, br.upper),
        "beta_exact": None if br.exact is None else num(br.exact),
        "n_used": br.n_used,
        "p_used": br.p_used,
        "witness": str(br.witness),
        "candidates": [str(c) for c in report.candidates],
        "unique_at_resolution": report.unique_at_resolution,
        "slack": num(report.slack),
    }
    series = [("upper", n, v) for n, v in br.upper_series]
    series += [("lower", p, v) for p, v in br.lower_series]
    rows = [("kind", "n_or_p", "value")] + [(k, i, repr(v)) for k, i, v in series]
    return results, rows


def _exp_birkhoff(space, cfg, params):
    f = parse_potential(space, _require(cfg, "potential", dict))
    beta = karp_beta(space, f)
    G = critical_graph(space, f)
    p_max = _require(params, "p_max", int, max(2, len(G.nodes) or 2))
    cycles, unique = maximizing_cycles(space, f, p_max)
    return {
        "beta": num(beta),
        "unique": unique,
        "critical_cycles": [str(c) for c in cycles],
        "critical_edge_count": len(G.edges),
        "component_count": len(G.components),
    }, None


def _exp_perturb(space, cfg, params):
    f = parse_potential(space, _require(cfg, "potential", dict))
    gamma = parse_potential(space, _require(params, "gamma", dict))
    if "eps" in params:
        grid = [_parse_scalar(e) for e in _require(params, "eps", list)]
    else:
        pmax = _require(params, "eps_min_pow", int, 12)
        grid = [Fraction(1, 2**j) for j in range(1, pmax + 1)]
    sweep = perturbation_sweep(space, f, gamma, grid)
    results = {
        "limit": num(sweep.limit),
        "epsilons": [num(e) for e in sweep.epsilons],
        "diameters": [num(d) for d in sweep.diameters],
        "hausdorff": [num(h) for h in sweep.hausdorff],
        "all_converged": all(h == 0 for h in sweep.hausdorff),
    }
    rows = [("epsilon", "diam", "hausdorff_to_limit", "num_extreme_values")]
    for eps, vals, diam, h in zip(sweep.epsilons, sweep.value_sets,
                                  sweep.diameters, sweep.hausdorff):
        rows.append((repr(float(eps)), repr(float(diam)), repr(float(h)), len(vals)))
    return results, rows


def _exp_probe(space, cfg, params):
    seed = _require(params, "seed", int)
    freq = uniqueness_probe(
        space, _get_cocycle(space, cfg, params), n_samples=_require(params, "n_samples", int),
        delta=_require(params, "delta", float), seed=seed,
        n_max=_require(params, "n_max", int, 10), p_max=_require(params, "p_max", int, 8),
        slack=_require(params, "slack", float, 1e-6))
    return {"unique_frequency": num(freq), "seed": seed}, None


def _exp_lambda(space, cfg, params):
    A = _get_cocycle(space, cfg, params)
    seed = _require(params, "seed", int)
    measures = [parse_measure(space, m) for m in _require(params, "measures", list)]
    res = stability_radius(measures, A, trials=_require(params, "trials", int, 100), seed=seed)
    return {
        "delta": num(res.delta),
        # a one-measure family has no gap
        "gap": num(res.gap) if math.isfinite(res.gap) else None,
        "argmax_index": res.argmax_index,
        "trials": res.trials,
        "trials_invariant": res.trials_invariant,
        "seed": seed,
    }, None


def _exp_irregular(space, cfg, params):
    A = _get_cocycle(space, cfg, params)
    c1 = _parse_cycle(space, _require(params, "c1", str))
    c2 = _parse_cycle(space, _require(params, "c2", str))
    schedule = build_irregular_point(space, A, c1, c2, r=_require(params, "ratio", float, 3.0),
                                     J=_require(params, "depth", int, 8))
    N = _require(params, "N", int, schedule.total_length)
    series = finite_time_exponents(space, A, schedule, N)
    lo, hi, gap = block_oscillation(series, schedule)
    tail_lo, tail_hi, tail_gap = oscillation(series)
    results = {
        "schedule": {
            "c1": str(c1),
            "c2": str(c2),
            "ratio": num(schedule.ratio),
            "depth": schedule.depth,
            "connectors": [word_to_str(w) for w in schedule.connectors],
            "lengths": list(schedule.lengths),
        },
        "block_liminf": num(lo),
        "block_limsup": num(hi),
        "block_gap": num(gap),
        "tail_min": num(tail_lo),
        "tail_max": num(tail_hi),
        "N": N,
    }
    # formatted only if a series file is written
    rows = itertools.chain([("n", "exponent")],
                           zip(range(1, N + 1), map(repr, series.tolist())))
    return results, rows


def _exp_flatten(space, cfg, params):
    values = [_parse_scalar(v) for v in _require(params, "values", list)]
    sys = identity_system(values)
    n = _require(params, "n", int)
    res = flatten_top(sys, n)
    return {
        "flattened": [num(v) for v in res.flattened],
        "distance": num(res.distance),
        "bound": num(sys.sup_norm / 2**n),
        "argmax_count": res.argmax_count,
        "band_holds": res.band_holds,
    }, None


def _exp_measure(space, cfg, params):
    A = _get_cocycle(space, cfg, params)
    measures = [parse_measure(space, m) for m in _require(params, "measures", list)]
    n_max = _require(params, "n_max", int, 12)
    res = restricted_beta(measures, A, n_max=n_max)
    i_max = _require(params, "i_max", int, 8)
    pairs = itertools.combinations(range(len(measures)), 2)
    dists = [{"pair": [i, j], "distance": num(d), "truncation_error": num(err)}
             for i, j in pairs for d, err in [weakstar_distance(measures[i], measures[j], i_max)]]
    return {
        "restricted_beta": bracket_num(*res.interval),
        "argmax": list(res.argmax),
        "certified_singleton": res.certified_singleton,
        "enclosures": [bracket_num(lo, hi) for lo, hi in res.enclosures],
        "weakstar_distances": dists,
    }, None


# experiment `name` runs `_exp_<name>`
_DISPATCH = {name: globals()[f"_exp_{name}"] for name in EXPERIMENTS}


# ---------------------------------------------------------------------------
# run + cache


def cache_lookup(digest: str, cache_dir: str | Path) -> dict | None:
    """Previously stored report body for an identical config digest."""
    path = Path(cache_dir) / f"{digest}.json"
    if not path.is_file():
        return None
    try:
        stored = json.loads(path.read_text())
        if not isinstance(stored, dict) or stored.get("config_digest") != digest:
            raise ValueError("digest mismatch")
        return stored
    except (ValueError, OSError) as exc:
        log.warning("corrupt cache entry %s (%s); recomputing", path, exc)
        return None


def serialize_body(body: dict) -> str:
    """Byte-stable strict JSON of a body or report: a non-finite number is
    refused, never written as NaN or Infinity."""
    try:
        return json.dumps(body, sort_keys=True, indent=1, allow_nan=False)
    except ValueError:
        raise ValidationError("the report holds a non-finite number") from None


def run_config(cfg: dict, cache_dir: str | Path | None = None, threads: int = 1):
    """Execute one experiment config, returning (body, series_rows, cached).

    The series rows of an `irregular` config are a one-pass iterable,
    formatted as it is read.

    `threads` is accepted for callers that pass it and selects nothing:
    every experiment runs on one thread.
    """
    cfg = _typed(cfg, dict, "a config")
    experiment = _require(cfg, "experiment", str)
    if experiment not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {experiment!r}")
    params = _require(cfg, "params", dict, {})
    digest = config_digest(cfg)
    if cache_dir is not None:
        hit = cache_lookup(digest, cache_dir)
        if hit is not None:
            return hit, None, True
    space = parse_system(_require(cfg, "system", dict))
    results, rows = _DISPATCH[experiment](space, cfg, params)
    body = {"config_digest": digest, "tool_version": __version__, "norm_tag": NORM_TAG,
            "experiment": experiment, "results": results}
    if cache_dir is not None:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        (Path(cache_dir) / f"{digest}.json").write_text(serialize_body(body))
    return body, rows, False


def run(config_path: str | Path, out_path: str | Path,
        cache_dir: str | Path | None = None, threads: int = 1) -> dict:
    """Load a config file, run it, write the report and any series CSV."""
    try:
        cfg = json.loads(Path(config_path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    t0 = time.monotonic()
    body, rows, cached = run_config(cfg, cache_dir=cache_dir, threads=threads)
    report = {"body": body, "cached": cached, "wall_time_s": time.monotonic() - t0}
    series_path = _require(_require(cfg, "out", dict, {}), "series", str, "")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(serialize_body(report))
    if rows is not None and series_path:
        Path(series_path).parent.mkdir(parents=True, exist_ok=True)
        with open(series_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return report
