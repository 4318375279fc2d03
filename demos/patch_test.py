"""Constant-stress patch test.

The field u = z c (a constant vector c shearing and stretching the column)
has constant stress, satisfies the clamped plate conditions with identically
zero plate displacement, and loads the structure only through the boundary
traction and the interface jump.  Both of these data live exactly in the
discrete spaces, so the mixed method must reproduce the stress to solver
roundoff - orders of magnitude below discretization error.
"""

from bodyplate.geometry_mesh import Diagonal, build_body_mesh, build_plate_mesh
from bodyplate.manufactured import constant_stress_case
from bodyplate.verification_cli import compute_error_norms, solve_mixed

case = constant_stress_case()          # c = (0.3, -0.2, 0.5) by default

print("exact stress tensor (constant):")
sigma = case.sigma_body([[0.0, 0.0, 0.5]])[0]
for row in sigma:
    print("   ", "  ".join(f"{v:10.4f}" for v in row))

body = build_body_mesh(2)
plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
sol, report = solve_mixed(body, plate, case)
print(f"\nsolved the condensed face-multiplier + plate system "
      f"({report.size} unknowns), relative residual "
      f"{report.relative_residual:.2e}")

rec = compute_error_norms(sol, case)
print("\nerror norms (all should be at roundoff):")
print(f"  ||sigma - sigma_h||_0  = {rec.sigma:.3e}")
print(f"  ||u - u_h||_0          = {rec.u:.3e}")
print(f"  |u* - u*_h|_1          = {rec.umem_h1:.3e}")
print(f"  |u3 - u3_h|_2h         = {rec.u3_h2:.3e}")

assert rec.sigma <= 1e-8, "patch test failed"
print("\npatch test passed: constant stress is reproduced exactly.")
