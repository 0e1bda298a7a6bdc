"""A cubic surface from its hypergeometric series.

The series fixes the mirror-map constant c0 = 3! and the
pole-location invariant T0 = 27.  The matching Laurent model has its
critical value at T0 - c0 = 21, found here by Newton iteration.
"""

import mpmath

from qgamma.jfun import quantum_lefschetz, quantum_period
from qgamma.mirror import conifold_point, przyjalkowski_model

out = quantum_lefschetz(4, 3, 6)
G = quantum_period(out["JY"])

print(f"space: {out['JY'].ring.name}")
print(f"c0 = {out['c0']}, T0 = {out['T0']}, T0 - c0 = {out['T0'] - out['c0']}")
print("G_d:", {d: str(G.coefficient(d)) for d in G.nonzero_degrees()[:5]})

model = przyjalkowski_model(4, 3)
res = conifold_point(model, P=50)
print(f"\ncritical value {mpmath.nstr(res.T_con, 20)} at x = "
      f"{tuple(mpmath.nstr(x, 8) for x in res.x_con)} "
      f"({res.newton_iterations} Newton steps, positive Hessian: "
      f"{res.hessian_positive})")
