"""Independent checks of experiment reports.

Each check recomputes what it needs from the config alone, with numpy,
fractions and itertools, and never imports the package under test.  Checks
use tolerances, never recorded digests, so a legitimate change in the last
bits of a float does not count as a failure.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np

TOL = 1e-9
FIB_TOL = 1e-12
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
BRUTE_PERIOD = 6  # periodic-orbit oracle covers every cycle up to this period
BRUTE_ROWS = 1 << 14  # depth-n oracle stops before it would hold more products


# ---------------------------------------------------------------------------
# symbolic dynamics from the config


class Shift:
    def __init__(self, system: dict):
        self.k = system["alphabet"]
        trans = system.get("transitions", "full")
        self.allowed = ([[True] * self.k for _ in range(self.k)] if trans == "full"
                        else [[bool(b) for b in row] for row in trans])

    def words(self, length: int) -> list[tuple[int, ...]]:
        return [w for w in itertools.product(range(self.k), repeat=length)
                if all(self.allowed[a][b] for a, b in zip(w, w[1:]))]

    def cyclic_words(self, period: int) -> list[tuple[int, ...]]:
        return [w for w in self.words(period) if self.allowed[w[-1]][w[0]]]


def _word(s: str) -> tuple[int, ...]:
    return tuple(int(t) for t in s.split(",")) if "," in s else tuple(int(c) for c in s)


def _matrices(cfg: dict) -> tuple[dict, int]:
    spec = cfg["cocycle"]
    return ({_word(w): np.array(m, dtype=float) for w, m in spec["matrices"].items()},
            spec["memory"])


def _windows(word, memory: int) -> list[tuple[int, ...]]:
    p = len(word)
    return [tuple(word[(i + j) % p] for j in range(memory)) for i in range(p)]


# ---------------------------------------------------------------------------
# matrix oracles


def cycle_exponent(table: dict, memory: int, word) -> float:
    """(1/p) log spectral radius of the plain product around a cycle."""
    logscale = 0.0
    P = None
    for win in _windows(word, memory):
        P = table[win] if P is None else table[win] @ P
        nrm = float(np.max(np.abs(P)))
        P = P / nrm
        logscale += math.log(nrm)
    return (logscale + math.log(float(np.max(np.abs(np.linalg.eigvals(P)))))) / len(word)


def best_cycle_exponents(shift: Shift, table: dict, memory: int, p_max: int) -> list[float]:
    """Running maximum of the cycle exponent over periods 1..p_max."""
    out, best = [], -math.inf
    for p in range(1, p_max + 1):
        for w in shift.cyclic_words(p):
            best = max(best, cycle_exponent(table, memory, w))
        out.append(best)
    return out


def depth_maxima(shift: Shift, table: dict, memory: int, n_max: int) -> list[float]:
    """Exact U_n = max over admissible n-step products of (1/n) log norm,
    by listing every product, for n = 1.. until the list would grow past
    BRUTE_ROWS or n reaches n_max."""
    s = max(memory - 1, 1)
    starts = shift.words(memory)
    states = [w[-s:] for w in starts]
    P = np.stack([table[w] for w in starts])
    logscale = np.zeros(len(starts))
    out = []
    for n in range(1, n_max + 1):
        norms = np.linalg.norm(P, 2, axis=(1, 2))
        out.append(float(np.max(logscale + np.log(norms))) / n)
        if n == n_max:
            break
        nxt_states, nxt_P, nxt_log = [], [], []
        for state in sorted(set(states)):
            rows = [i for i, st in enumerate(states) if st == state]
            for b in range(shift.k):
                if not shift.allowed[state[-1]][b]:
                    continue
                win = state + (b,) if memory >= 2 else (b,)
                nxt_states += [win[-s:]] * len(rows)
                nxt_P.append(table[win] @ P[rows])
                nxt_log.append(logscale[rows])
        if len(nxt_states) > BRUTE_ROWS:
            break
        states = nxt_states
        P = np.concatenate(nxt_P)
        logscale = np.concatenate(nxt_log)
        scale = np.max(np.abs(P), axis=(1, 2))
        P = P / scale[:, None, None]
        logscale = logscale + np.log(scale)
    return out


def _series(text: str) -> tuple[dict[int, float], dict[int, float]]:
    upper, lower = {}, {}
    rows = list(csv.reader(io.StringIO(text)))
    for kind, i, v in rows[1:]:
        (upper if kind == "upper" else lower)[int(i)] = float(v)
    return upper, lower


def check_matrix_beta(case: dict, body: dict, series: str | None) -> list[str]:
    cfg = case["config"]
    res = body["results"]
    lo, hi = res["bracket"]["value"]
    fails = []
    if not lo <= hi:
        fails.append(f"bracket inverted: L={lo!r} > U={hi!r}")
    shift = Shift(cfg["system"])
    table, memory = _matrices(cfg)
    params = cfg["params"]
    best = best_cycle_exponents(shift, table, memory, min(BRUTE_PERIOD, params["p_max"]))
    if lo < best[-1] - TOL:
        fails.append(f"L={lo!r} below the best cycle exponent up to period "
                     f"{len(best)}, {best[-1]!r}")
    if series is None:
        return fails + ["no series CSV written"]
    upper, lower = _series(series)
    for p, val in lower.items():
        if p <= len(best) and abs(val - best[p - 1]) > TOL:
            fails.append(f"L_{p}={val!r} differs from the oracle {best[p - 1]!r}")
    if not upper or min(upper.values()) != hi:
        fails.append(f"U={hi!r} is not the minimum of the U_n series")
    exact = depth_maxima(shift, table, memory, max(upper, default=1))
    for n, val in enumerate(exact, start=1):
        if abs(upper.get(n, math.inf) - val) > TOL:
            fails.append(f"U_{n}={upper.get(n)!r} differs from the oracle {val!r}")
    return fails


def check_fib_beta(case: dict, body: dict, series: str | None) -> list[str]:
    lo, hi = body["results"]["bracket"]["value"]
    fails = check_matrix_beta(case, body, series)
    if not lo - FIB_TOL <= LOG_PHI <= hi + FIB_TOL:
        fails.append(f"[{lo!r}, {hi!r}] does not contain log(phi) to {FIB_TOL}")
    return fails


def _log_norm_range(cfg: dict) -> tuple[float, float]:
    """Bounds on every finite-time exponent: submultiplicativity of the
    norm and of the inverse's norm."""
    table, _ = _matrices(cfg)
    up = max(math.log(np.linalg.norm(m, 2)) for m in table.values())
    down = max(math.log(np.linalg.norm(np.linalg.inv(m), 2)) for m in table.values())
    return -down, up


def check_lambda(case: dict, body: dict, series: str | None) -> list[str]:
    cfg = case["config"]
    res = body["results"]
    table, memory = _matrices(cfg)
    values = [cycle_exponent(table, memory, _word(m["cycle"]))
              for m in cfg["params"]["measures"]]
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=True)
    fails = []
    if res["argmax_index"] != order[0]:
        fails.append(f"argmax {res['argmax_index']} != oracle {order[0]}")
    gap = values[order[0]] - values[order[1]]
    if abs(res["gap"]["value"] - gap) > TOL:
        fails.append(f"gap {res['gap']['value']!r} != oracle {gap!r}")
    if not res["delta"]["value"] > 0:
        fails.append("stability radius is not positive")
    if res["trials"] != cfg["params"]["trials"] or res["trials_invariant"] != res["trials"]:
        fails.append(f"{res['trials_invariant']} of {res['trials']} perturbations "
                     "inside the certified radius kept the argmax")
    return fails


def check_irregular(case: dict, body: dict, series: str | None) -> list[str]:
    cfg = case["config"]
    res = body["results"]
    lo, hi = _log_norm_range(cfg)
    fails = []
    if res["N"] != cfg["params"]["N"]:
        fails.append(f"N={res['N']} != configured {cfg['params']['N']}")
    vals = {k: res[k]["value"] for k in ("block_liminf", "block_limsup", "tail_min", "tail_max")}
    for k, v in vals.items():
        if not lo - TOL <= v <= hi + TOL:
            fails.append(f"{k}={v!r} outside the norm bounds [{lo!r}, {hi!r}]")
    if not vals["block_liminf"] < vals["block_limsup"]:
        fails.append("no oscillation between block ends")
    if not vals["tail_min"] <= vals["tail_max"]:
        fails.append("tail min above tail max")
    return fails


def _stationary(P: np.ndarray) -> np.ndarray:
    k = P.shape[0]
    A = P.T - np.eye(k)
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def check_measure(case: dict, body: dict, series: str | None) -> list[str]:
    cfg = case["config"]
    res = body["results"]
    table, memory = _matrices(cfg)
    (mu,) = cfg["params"]["measures"]
    P = np.array(mu["stochastic"])
    pi = _stationary(P)
    # one-step averages: the subadditive upper end and superadditive lower end
    up = down = 0.0
    for w, m in table.items():
        mass = pi[w[0]] * math.prod(P[a, b] for a, b in zip(w, w[1:]))
        up += mass * math.log(np.linalg.norm(m, 2))
        down += mass * math.log(np.linalg.norm(np.linalg.inv(m), 2))
    lo, hi = res["restricted_beta"]["value"]
    fails = []
    if not -down - TOL <= lo <= hi <= up + TOL:
        fails.append(f"enclosure [{lo!r}, {hi!r}] not inside [{-down!r}, {up!r}]")
    if res["argmax"] != [0] or res["certified_singleton"] is not True:
        fails.append("a one-measure family must be its own certified argmax")
    return fails


def check_probe(case: dict, body: dict, series: str | None) -> list[str]:
    params = case["config"]["params"]
    freq = body["results"]["unique_frequency"]["value"]
    hits = freq * params["n_samples"]
    fails = []
    if not 0.0 <= freq <= 1.0 or abs(hits - round(hits)) > TOL:
        fails.append(f"frequency {freq!r} is not a count over {params['n_samples']} samples")
    if body["results"]["seed"] != params["seed"]:
        fails.append("probe seed not echoed")
    return fails


# ---------------------------------------------------------------------------
# exact scalar oracles


def _graph(shift: Shift, potentials: list[dict]):
    """Word graph of the common memory M >= 2: nodes are (M-1)-words, each
    M-word an edge.  Weights are integers over a common denominator."""
    M = max(2, *(p["memory"] for p in potentials))
    tables = [{_word(w): Fraction(v) for w, v in p["values"].items()} for p in potentials]
    den = math.lcm(*(v.denominator for t in tables for v in t.values()))
    edges = []
    for w in shift.words(M):
        weights = tuple(int(t[w[:p["memory"]]] * den) for t, p in zip(tables, potentials))
        edges.append((w[:-1], w[1:], weights))
    nodes = sorted({u for u, _, _ in edges})
    return nodes, edges, den


def closed_walk_maxima(shift: Shift, potentials: list[dict]):
    """Lexicographic maximum of the weight sums of closed walks, for every
    start node and length up to the node count.  Every closed walk splits
    into simple cycles, so these cover every primitive cycle up to the node
    count and no better mean exists."""
    nodes, edges, den = _graph(shift, potentials)
    index = {v: i for i, v in enumerate(nodes)}
    preds = [[] for _ in nodes]
    for u, v, w in edges:
        preds[index[v]].append((index[u], w))
    out = []
    for s in range(len(nodes)):
        best = [None] * len(nodes)
        best[s] = (0,) * len(potentials)
        for length in range(1, len(nodes) + 1):
            nxt = [None] * len(nodes)
            for v, ps in enumerate(preds):
                for u, w in ps:
                    if best[u] is not None:
                        cand = tuple(a + b for a, b in zip(best[u], w))
                        if nxt[v] is None or cand > nxt[v]:
                            nxt[v] = cand
            best = nxt
            if best[s] is not None:
                out.append((length, best[s]))
    return out, den


def max_cycle_mean(shift: Shift, potential: dict) -> Fraction:
    walks, den = closed_walk_maxima(shift, [potential])
    return max(Fraction(total, length * den) for length, (total,) in walks)


def relative_max(shift: Shift, f: dict, gamma: dict) -> Fraction:
    """Max gamma-mean over the cycles of maximal f-mean."""
    walks, den = closed_walk_maxima(shift, [f, gamma])
    beta = max(Fraction(fs, length) for length, (fs, _) in walks)
    return max(Fraction(gs, length * den) for length, (fs, gs) in walks
               if Fraction(fs, length) == beta)


def critical_cycles(shift: Shift, potential: dict, beta: Fraction, p_max: int) -> set:
    """Every primitive cycle of period <= p_max whose mean is beta, as its
    least rotation (a Lyndon word: strictly below its proper rotations)."""
    table = {_word(w): Fraction(v) for w, v in potential["values"].items()}
    out = set()
    for p in range(1, p_max + 1):
        for w in shift.cyclic_words(p):
            if all(w < w[i:] + w[:i] for i in range(1, p)) and \
                    sum(table[x] for x in _windows(w, potential["memory"])) == beta * p:
                out.add(w)
    return out


def check_birkhoff(case: dict, body: dict, series: str | None) -> list[str]:
    cfg = case["config"]
    res = body["results"]
    shift = Shift(cfg["system"])
    beta = max_cycle_mean(shift, cfg["potential"])
    fails = []
    if Fraction(res["beta"]["value"]) != beta:
        fails.append(f"beta {res['beta']['value']} != oracle {beta}")
    listed = {_word(c) for c in res["critical_cycles"]}
    expected = critical_cycles(shift, cfg["potential"], beta, cfg["params"]["p_max"])
    if listed != expected:
        fails.append(f"critical cycles {sorted(listed)} != oracle {sorted(expected)}")
    if res["unique"] and len(listed) > 1:
        fails.append("several critical cycles, yet the maximizer is called unique")
    return fails


def check_constant_beta(case: dict, body: dict, series: str | None) -> list[str]:
    res = body["results"]
    fails = []
    if res["beta_exact"] != {"value": "0/1", "provenance": "exact-rational"}:
        fails.append(f"beta_exact {res['beta_exact']} != 0")
    if res["witness"] != "0":
        fails.append(f"witness {res['witness']} != 0")
    if res["bracket"]["value"] != [0.0, 0.0]:
        fails.append(f"bracket {res['bracket']['value']} != [0, 0]")
    return fails


def check_perturb(case: dict, body: dict, series: str | None) -> list[str]:
    cfg = case["config"]
    res = body["results"]
    limit = relative_max(Shift(cfg["system"]), cfg["potential"], cfg["params"]["gamma"])
    fails = []
    if Fraction(res["limit"]["value"]) != limit:
        fails.append(f"limit {res['limit']['value']} != oracle {limit}")
    n_eps = cfg["params"]["eps_min_pow"]
    if [Fraction(e["value"]) for e in res["epsilons"]] != \
            [Fraction(1, 2**j) for j in range(1, n_eps + 1)]:
        fails.append("epsilon grid differs from the configured one")
    if any(Fraction(v["value"]) < 0 for v in res["diameters"] + res["hausdorff"]):
        fails.append("negative diameter or distance")
    return fails


def check_perturb_ties(case: dict, body: dict, series: str | None) -> list[str]:
    res = body["results"]
    fails = check_perturb(case, body, series)
    c = Fraction(case["expect"]["gamma_mean"])
    if Fraction(res["limit"]["value"]) != c:
        fails.append(f"limit {res['limit']['value']} != gamma mean {c}")
    if any(Fraction(v["value"]) != 0 for v in res["diameters"] + res["hausdorff"]):
        fails.append("every cycle has the same gamma-mean, yet a diameter is nonzero")
    return fails


CHECKS = {
    "matrix_beta": check_matrix_beta,
    "fib_beta": check_fib_beta,
    "lambda": check_lambda,
    "irregular": check_irregular,
    "measure": check_measure,
    "probe": check_probe,
    "birkhoff": check_birkhoff,
    "constant_beta": check_constant_beta,
    "perturb": check_perturb,
    "perturb_ties": check_perturb_ties,
}


def check(case: dict, body: dict, series: str | None) -> list[str]:
    """Failure messages for one report body; empty when every check holds."""
    if body.get("experiment") != case["config"]["experiment"]:
        return [f"report is for experiment {body.get('experiment')!r}"]
    try:
        return CHECKS[case["kind"]](case, body, series)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
