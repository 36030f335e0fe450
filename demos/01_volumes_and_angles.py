"""Parallelotope volumes, principal angles, and volume correlation.

Walks through the geometric primitives the detector is built on: the
d-dimensional volume of a matrix, the principal angles between two
subspaces, and the volume correlation that ties them together.

Run:  python demos/01_volumes_and_angles.py
"""

import numpy as np

from vcdetect import (
    SubspaceBasis,
    orthonormalize,
    principal_angles,
    volume,
    volume_correlation,
)

rng = np.random.default_rng(7)

# --- volume of a parallelotope ------------------------------------------
# For a unit square embedded in 3-d the 2-volume is exactly 1; shearing one
# edge changes the singular values but volume tracks the actual area.
square = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
sheared = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
print("2-volume of unit square:  ", volume(square, 2))
print("2-volume of sheared square:", volume(sheared, 2), "(shear preserves area)")

# Rank-deficient input: the parallelotope is flat, so the volume vanishes.
flat = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
print("2-volume of flat matrix:   ", volume(flat, 2))
print()

# --- principal angles ---------------------------------------------------
# Two planes in R^4 sharing one direction: the first principal angle is 0,
# the second measures how far apart the remaining directions are (60 deg:
# B's second vector leans out of A's plane by theta).
A = SubspaceBasis(np.eye(4)[:, :2])
theta = np.pi / 3
second = np.array([0.0, np.cos(theta), np.sin(theta), 0.0])
B = SubspaceBasis(np.column_stack([np.eye(4)[:, 0], second]))
angles = principal_angles(A, B)
print("principal angles (deg):", np.degrees(angles))

# --- volume correlation -------------------------------------------------
# The stacked volume of [A, B] normalized by the individual volumes equals
# the product of the sines of the principal angles.  A shared direction
# (sin 0 = 0) drives it to zero, flagging an intersection.
print("volume correlation A,B:", volume_correlation(A, B))
print()

C = orthonormalize(rng.standard_normal((12, 3)), tol=1e-12)
D = orthonormalize(rng.standard_normal((12, 4)), tol=1e-12)
corr = volume_correlation(C, D)
sines = np.sin(principal_angles(C, D))
print("random 3-d vs 4-d subspaces in R^12")
print("  volume correlation: ", corr)
print("  product of sines:   ", float(np.prod(sines)))
print("  agreement:          ", abs(corr - float(np.prod(sines))))
