"""The unit-modulus gauge linking the two derivative NLS forms.

At sigma = 1 the equation with nonlinearity |u|^2 u_x maps onto the
standard derivative NLS (d/dx of |u|^2 u form) by multiplying with
exp(-(i/2) int_{-inf}^x |u|^2).  This script runs the gauge-check
experiment, which evolves the same datum in both frames and compares the
flows after undoing the gauge.

Run:  python3 demos/gauge_equivalence.py
"""

import numpy as np

from gdnls import FORWARD, GridSpec, gauge_transform, gaussian_field
from gdnls.cli import run, validate_config

# the datum of gauge-check at delta = 0.4 and its default grid, width and velocity
grid = GridSpec(2048, 80.0)
u0 = gaussian_field(grid, 1.0, 0.5, amplitude=0.4)

v0 = gauge_transform(u0, FORWARD)
print("the gauge factor has unit modulus, so |v0| = |u0| pointwise:")
print(f"  max | |v0| - |u0| | = {np.max(np.abs(np.abs(v0.values) - np.abs(u0.values))):.2e}")
print(f"  phase actually changed: max |v0 - u0| = {np.max(np.abs(v0.values - u0.values)):.3f}")
print()

for t_end in (0.25, 0.5, 1.0):
    record = run(validate_config("gauge-check", {"delta": "0.4", "t_end": str(t_end)}))
    diff = record.checks["l2_difference"]
    print(f"t = {t_end:4.2f}:  || flow-then-ungauge  -  direct flow ||_L2 = {diff:.3e}")

print()
print("the two routes agree to the integrator's accuracy floor; the")
print("inverse gauge at time t uses the evolved solution's own density,")
print("so no extra bookkeeping is needed to undo the transformation.")
