"""Gr(2,5): one period, two constructions, and the spectrum verdict."""

import mpmath

from qgamma.grassmann import (bcfk_j_series, ehx_constant_terms,
                              grassmann_spectrum)
from qgamma.jfun import quantum_period

# residue formula on the flag quotient vs. constant terms of the
# ladder-diagram mirror, both exact
G_res = quantum_period(bcfk_j_series(2, 5, 15))
G_ct = ehx_constant_terms(2, 5, 15)

print("degree  residue route      mirror route       equal")
for d in (5, 10, 15):
    g, e = G_res.coefficient(d), G_ct.coefficient(d)
    print(f"{d:6d}  {str(g):17s}  {str(e):17s}  {g == e}")

sp = grassmann_spectrum(2, 5, P=50)
print(f"\nspectral radius T = {mpmath.nstr(sp['T'], 20)}")
print(f"closed form        = {mpmath.nstr(sp['T_formula'], 20)}")
print(f"maximizers: {sp['maximizers']} (consecutive: "
      f"{sp['maximizers_consecutive']})")
print(f"eigenvalue verdict: {sp['property_o']['satisfied']}")
