"""Regression diagnostics without running the regression.

After centering the data, the minimized loss value of a multiple linear fit
is

    delta = sqrt( det((Xc|yc)' (Xc|yc)) / det(Xc' Xc) )

and the multiple correlation coefficient follows by Pythagoras:

    rho = sqrt(1 - det((Xc|yc)' (Xc|yc)) / (det(Xc' Xc) * yc'yc))

Both need only determinants of centered Gram matrices -- no normal
equations, no coefficients.  This script computes them that way and then
runs the actual solve to confirm.
"""

import numpy as np

from gramdist import Dataset, loss_value_residual, regression_report

print("Small worked dataset: x = 1..4, y = (1, 2, 2, 3)")
d = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([1.0, 2.0, 2.0, 3.0]))
det_only = regression_report(d, solve=False)
print(f"  loss value (determinants only) : {det_only.loss_value:.15f}   [sqrt(0.2)]")
print(f"  correlation (determinants only): {det_only.correlation:.15f}   [sqrt(0.9)]")
print(f"  mean squared loss              : {det_only.mean_squared_loss:.15f}   [0.2 / 3]")

solved = regression_report(d)
a = solved.coefficients
print()
print(f"Now the actual fit: intercept {a[0]:.4f}, slope {a[1]:.4f}")
print(f"  residual-norm loss             : {loss_value_residual(d, a):.15f}")
print(f"  cosine-form correlation        : {solved.correlation_projection:.15f}")

print()
print("A larger random dataset, 200 samples, 6 regressors")
rng = np.random.default_rng(8)
x = rng.uniform(-1, 1, (200, 6))
y = x @ rng.uniform(-1, 1, 6) + 0.25 * rng.uniform(-1, 1, 200)
d2 = Dataset(x, y)

# one factor of the centered data gives both determinant-route numbers, and
# one solve the coefficients and the cosine-form correlation
rep = regression_report(d2)
delta_det = rep.loss_value
delta_res = loss_value_residual(d2, rep.coefficients)
rho_det = rep.correlation
rho_proj = rep.correlation_projection
print(f"  loss: determinant route {delta_det:.12f} vs solve route {delta_res:.12f}")
print(f"  correlation: determinant route {rho_det:.12f} vs cosine route {rho_proj:.12f}")
print(f"  agreement: {abs(delta_det - delta_res):.3e} and {abs(rho_det - rho_proj):.3e}")
