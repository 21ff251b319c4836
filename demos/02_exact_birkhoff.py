"""Exact scalar ergodic optimization on the golden-mean shift.

For a locally constant potential the maximum ergodic average is the
maximum cycle mean of the word graph, computed exactly in rational
arithmetic, and the critical graph carries every maximizing measure.
"""

from fractions import Fraction

import ergopt as eo

golden = eo.new_shift(2, [[True, True], [True, False]])

# reward leaving 0 and entering 1, memory 2
f = eo.ScalarPotential(golden, 2, {
    (0, 0): Fraction(1, 3),
    (0, 1): Fraction(1),
    (1, 0): Fraction(0),
})

beta = eo.karp_beta(golden, f)
print("exact maximum ergodic average:", beta)

G = eo.critical_graph(golden, f)
print("critical edges:", sorted(G.edges))
cycles, unique = eo.maximizing_cycles(golden, f, p_max=4)
print("maximizing cycles:", [str(c) for c in cycles], " unique:", unique)

# tie-breaking by a second potential: which maximizer does gamma prefer?
tie = eo.ScalarPotential(golden, 2, {
    (0, 0): Fraction(1), (0, 1): Fraction(1), (1, 0): Fraction(1)})
gamma = eo.ScalarPotential(golden, 1, {(0,): Fraction(0), (1,): Fraction(1)})
print("\ntied potential: every cycle is maximizing")
print("gamma-average over the maximizers:", eo.relative_beta(golden, tie, gamma))

grid = [Fraction(1, 2 ** j) for j in range(1, 9)]
sweep = eo.perturbation_sweep(golden, tie, gamma, grid)
print("least and greatest gamma-mean of the maximizers along eps -> 0:")
for eps, values in zip(sweep.epsilons, sweep.value_sets):
    print(f"  eps = {str(eps):6s} {[str(v) for v in values]}")
print("limit:", sweep.limit)
