"""Experiment dispatch and deterministic reporting.

Configs are JSON; reports are JSON with a stable config digest and a body
that is byte-reproducible for a fixed (config, seed, version); series go
to CSV for external plotting.  Exact rationals are serialized as "p/q"
strings and every numeric result carries a provenance tag.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
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
    if isinstance(x, float):
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


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ValidationError(f"missing config key {key!r}")
    return cfg[key]


def parse_system(spec: dict) -> ShiftSpace:
    k = _require(spec, "alphabet")
    trans = spec.get("transitions", "full")
    if trans == "full":
        return new_shift(k)
    return new_shift(k, trans)


def parse_potential(space: ShiftSpace, spec: dict) -> ScalarPotential:
    memory = _require(spec, "memory")
    values = _require(spec, "values")
    table = {str_to_word(w): _parse_scalar(v) for w, v in values.items()}
    return ScalarPotential(space, memory, table)


def parse_cocycle(space: ShiftSpace, spec: dict) -> MatrixCocycle:
    d = _require(spec, "d")
    memory = _require(spec, "memory")
    matrices = _require(spec, "matrices")
    table = {
        str_to_word(w): np.array(rows, dtype=float)
        for w, rows in matrices.items()
    }
    return MatrixCocycle(space, d, memory, table)


def parse_measure(space: ShiftSpace, spec: dict) -> MeasureSpec:
    if "cycle" in spec:
        return PeriodicMeasure(space, make_cycle(space, str_to_word(spec["cycle"])))
    if "stochastic" in spec:
        return markov_measure(space, spec["stochastic"], spec.get("stationary"))
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


def _get_cocycle(space: ShiftSpace, cfg: dict) -> MatrixCocycle:
    if "cocycle" in cfg:
        return parse_cocycle(space, cfg["cocycle"])
    if "potential" in cfg:
        f = parse_potential(space, cfg["potential"])
        return from_potential(f, d=int(cfg.get("params", {}).get("d", 1)))
    raise ValidationError("config needs 'cocycle' or 'potential'")


def _exp_beta(space, cfg, params):
    A = _get_cocycle(space, cfg)
    report = matrix_candidates(
        space,
        A,
        n_max=int(params.get("n_max", 24)),
        p_max=int(params.get("p_max", 12)),
        slack=float(params.get("slack", 1e-6)),
        gap_tol=float(params.get("gap_tol", 1e-3)),
        budget=int(params.get("word_budget", 10_000_000)),
    )
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
    f = parse_potential(space, _require(cfg, "potential"))
    beta = karp_beta(space, f)
    G = critical_graph(space, f)
    p_max = int(params.get("p_max", max(2, len(G.nodes) or 2)))
    cycles, unique = maximizing_cycles(space, f, p_max)
    results = {
        "beta": num(beta),
        "unique": unique,
        "critical_cycles": [str(c) for c in cycles],
        "critical_edge_count": len(G.edges),
        "component_count": len(G.components),
    }
    return results, None


def _exp_perturb(space, cfg, params):
    f = parse_potential(space, _require(cfg, "potential"))
    gamma = parse_potential(space, _require(params, "gamma"))
    if "eps" in params:
        grid = [_parse_scalar(e) for e in params["eps"]]
    else:
        pmax = int(params.get("eps_min_pow", 12))
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
    A = _get_cocycle(space, cfg)
    seed = _require(params, "seed")
    freq = uniqueness_probe(
        space,
        A,
        n_samples=int(_require(params, "n_samples")),
        delta=float(_require(params, "delta")),
        seed=int(seed),
        n_max=int(params.get("n_max", 10)),
        p_max=int(params.get("p_max", 8)),
        slack=float(params.get("slack", 1e-6)),
    )
    return {"unique_frequency": num(freq), "seed": int(seed)}, None


def _exp_lambda(space, cfg, params):
    A = _get_cocycle(space, cfg)
    seed = _require(params, "seed")
    measures = [
        PeriodicMeasure(space, _parse_cycle(space, m["cycle"]))
        for m in _require(params, "measures")
    ]
    res = stability_radius(measures, A, trials=int(params.get("trials", 100)),
                           seed=int(seed))
    results = {
        "delta": num(res.delta),
        "gap": num(res.gap),
        "argmax_index": res.argmax_index,
        "trials": res.trials,
        "trials_invariant": res.trials_invariant,
        "seed": int(seed),
    }
    return results, None


def _exp_irregular(space, cfg, params):
    A = _get_cocycle(space, cfg)
    c1 = _parse_cycle(space, _require(params, "c1"))
    c2 = _parse_cycle(space, _require(params, "c2"))
    schedule = build_irregular_point(
        space, A, c1, c2,
        r=float(params.get("ratio", 3.0)),
        J=int(params.get("depth", 8)),
    )
    N = int(params.get("N", schedule.total_length))
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
    rows = [("n", "exponent")] + [(n + 1, repr(float(v))) for n, v in enumerate(series)]
    return results, rows


def _exp_flatten(space, cfg, params):
    values = [_parse_scalar(v) for v in _require(params, "values")]
    sys = identity_system(values)
    n = int(_require(params, "n"))
    res = flatten_top(sys, n)
    results = {
        "flattened": [num(v) for v in res.flattened],
        "distance": num(res.distance),
        "bound": num(sys.sup_norm / 2**n),
        "argmax_count": res.argmax_count,
        "band_holds": res.band_holds,
    }
    return results, None


def _exp_measure(space, cfg, params):
    A = _get_cocycle(space, cfg)
    measures = [parse_measure(space, m) for m in _require(params, "measures")]
    n_max = int(params.get("n_max", 12))
    res = restricted_beta(measures, A, n_max=n_max)
    i_max = int(params.get("i_max", 8))
    dists = []
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            d, err = weakstar_distance(measures[i], measures[j], i_max)
            dists.append({"pair": [i, j], "distance": num(d),
                          "truncation_error": num(err)})
    results = {
        "restricted_beta": bracket_num(*res.interval),
        "argmax": list(res.argmax),
        "certified_singleton": res.certified_singleton,
        "enclosures": [bracket_num(lo, hi) for lo, hi in res.enclosures],
        "weakstar_distances": dists,
    }
    return results, None


_DISPATCH = {
    "beta": _exp_beta,
    "birkhoff": _exp_birkhoff,
    "perturb": _exp_perturb,
    "probe": _exp_probe,
    "lambda": _exp_lambda,
    "irregular": _exp_irregular,
    "flatten": _exp_flatten,
    "measure": _exp_measure,
}


# ---------------------------------------------------------------------------
# run + cache


def cache_lookup(digest: str, cache_dir: str | Path) -> dict | None:
    """Previously stored report body for an identical config digest."""
    path = Path(cache_dir) / f"{digest}.json"
    if not path.is_file():
        return None
    try:
        stored = json.loads(path.read_text())
        if stored.get("config_digest") != digest:
            raise ValueError("digest mismatch")
        return stored
    except (ValueError, OSError) as exc:
        log.warning("corrupt cache entry %s (%s); recomputing", path, exc)
        return None


def _cache_store(digest: str, body: dict, cache_dir: str | Path) -> None:
    path = Path(cache_dir) / f"{digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(serialize_body(body))


def serialize_body(body: dict) -> str:
    return json.dumps(body, sort_keys=True, indent=1)


def run_config(cfg: dict, cache_dir: str | Path | None = None, threads: int = 1):
    """Execute one experiment config, returning (body, series_rows, cached).

    `threads` is accepted for callers that pass it and selects nothing:
    every experiment runs on one thread.
    """
    experiment = _require(cfg, "experiment")
    if experiment not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {experiment!r}")
    params = cfg.get("params", {})
    digest = config_digest(cfg)
    if cache_dir is not None:
        hit = cache_lookup(digest, cache_dir)
        if hit is not None:
            return hit, None, True
    space = parse_system(_require(cfg, "system"))
    results, rows = _DISPATCH[experiment](space, cfg, params)
    body = {
        "config_digest": digest,
        "tool_version": __version__,
        "norm_tag": NORM_TAG,
        "experiment": experiment,
        "results": results,
    }
    if cache_dir is not None:
        _cache_store(digest, body, cache_dir)
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
    report = {
        "body": body,
        "cached": cached,
        "wall_time_s": time.monotonic() - t0,
    }
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, sort_keys=True, indent=1))
    series_path = cfg.get("out", {}).get("series")
    if rows is not None and series_path:
        with open(series_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return report
