"""One distance, three routes.

The Euclidean distance from a vector b to the column space of a matrix A
satisfies

    dist(A, b) * sqrt(det(A* A)) = sqrt(det((A|b)* (A|b)))

so for full-rank A the distance is a ratio of two Gram determinants -- no
projection, no solve.  This script computes the same distance three ways and
shows the log-determinant carrier keeping the ratio healthy even when each
determinant is far outside the double range.
"""

import numpy as np

from gramdist import distance_det, distance_projection, distance_qr, gram_logdets

rng = np.random.default_rng(1)

print("A moderate example: random complex 8 x 3, random target")
a = rng.uniform(-1, 1, (8, 3)) + 1j * rng.uniform(-1, 1, (8, 3))
b = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)

r_det = distance_det(a, b)
r_proj = distance_projection(a, b)
r_qr = distance_qr(a, b)

print(f"  determinant ratio : {r_det.value:.15f}")
print(f"  projection        : {r_proj.value:.15f}")
print(f"  qr coordinate     : {r_qr.value:.15f}")
spread = max(r_det.value, r_proj.value, r_qr.value) - min(
    r_det.value, r_proj.value, r_qr.value
)
print(f"  spread across routes: {spread:.3e}")

print()
print("Scale extremes: columns scaled by 1e150, so det(A*A) ~ 1e900")
a_big = a * 1e150
b_big = b * 1e150
r_big = distance_det(a_big, b_big)
ld_a, ld_ab = gram_logdets(a_big, b_big)
print(f"  log det(A*A)        = {ld_a.log_mag:.6f}")
print(f"  log det((A|b)*(A|b))= {ld_ab.log_mag:.6f}")
print(f"  distance            = {r_big.value:.6e}")
print(f"  same distance scaled back: {r_big.value / 1e150:.15f}")
print("  neither determinant fits a double, their ratio does")

print()
print("Rank-deficient A: the determinant ratio is undefined, the")
print("triangular route still yields the true distance")
a_def = np.column_stack([a[:, 0], a[:, 0]])
r_def = distance_qr(a_def, b)
basis = a[:, 0] / np.linalg.norm(a[:, 0])
brute = np.linalg.norm(b - basis * np.vdot(basis, b))
print(f"  qr coordinate : {r_def.value:.15f}")
print(f"  brute force   : {brute:.15f}")
