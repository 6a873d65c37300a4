"""Anatomy of the convolution test function f_l = g*h.

g is a shifted Jacobi polynomial truncated below xi (the largest root of
its derivative), h the indicator of [xi, 1].  The script shows the
coefficient structure that certifies membership in the admissible class --
c_{l+1}[f] = 0 and c_k[f] <= 0 beyond -- and that tau/c_0[h] reproduces the
closed-form bound.

The series is truncated at k_max = 2400, where the last retained term is
3.0e-14, below the package's 1e-12 * f(1) = 5.9e-14.  The coefficients decay
slowly and not monotonically: the tail term is 2.1e-9 at k_max = 200,
3.5e-13 at 800 and 3.1e-13 at 2000.  Truncated at k_max = 200, f(1) reads
5.861700e-02 instead of 5.861687e-02.
"""

import numpy as np

from projbound import (
    Field,
    bound_from_test_function,
    build_test_function,
    eval_f,
    tau,
    yudin_bound,
)

field, m, l = Field.H, 2, 4
p = 2 * l
tf = build_test_function(field, m, l, k_max=2400)

print(f"field {field.name}, m={m}, l={l}  (alpha={tf.params.alpha}, beta={tf.params.beta})")
print(f"xi (largest root of P'_{tf.r}) = {tf.xi:.12f}")
print(f"f(1) = {tf.value_at_one:.6e}")
print()
print(f"{'k':>4} {'c_k[h]':>14} {'c_k[g]':>14} {'c_k[f]':>14}")
for k in list(range(0, 10)) + [50, 100, 200]:
    print(f"{k:>4} {tf.coeff_h[k]:>14.4e} {tf.coeff_g[k]:>14.4e} {tf.coeff_f[k]:>14.4e}")
print()
print(f"c_{tf.r}[f] = {tf.coeff_f[tf.r]:.3e} (vanishes),",
      f"all later coefficients <= 0: {bool(np.all(tf.coeff_f[tf.r+1:] <= 0))}")

grid = np.linspace(-1.0, 1.0, 2000)
vals = eval_f(tf, grid)
print(f"grid minimum of f: {vals.min():.3e} (relative to f(1): {vals.min()/tf.value_at_one:.1e})")

print()
bound = bound_from_test_function(tf)
rep = yudin_bound(field, m, p)
print(f"tau/c_0[h]      = {bound:.12f}")
print(f"closed form     = {rep.yudin_raw:.12f}")
print(f"rounded bound   = {rep.yudin_bound}  (LP bound {rep.lp_bound})")
print(f"tau = {tau(tf.params):.12f}")
