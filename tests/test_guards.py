"""The argument guards of the formula functions, each at its edge.

A ``< 0`` guard raises just below 0 and passes 0; a ``<= 0`` guard raises at 0
and passes a small positive value, where the formula stays finite.  Each case
checks the message, so that a guard moved off its edge fails here.
"""

import math

import pytest

from cfstcol.capacity import eta_c, eta_s
from cfstcol.materials import (
    biaxial_ratio,
    confined_peak_strain,
    confining_pressure,
    fracture_energy,
    kc,
    peak_strain_unconfined,
    residual_stress,
    softening_params,
)
from cfstcol.section import classify_concrete, confinement_factor

TINY = 1e-9
POSITIVE = "f_c must be positive"

ETA_S = dict(alpha_s=0.1, f_c=30.0, f_y=300.0)
ETA_C = dict(dt_ratio=20.0, f_c=30.0, xi_c=1.0)
PRESSURE = dict(f_y=300.0, f_c=30.0, dt_ratio=20.0)
PEAK = dict(eps_c0=0.002, f_r=1.0, f_c=30.0)
FRACTURE = dict(f_c=30.0, d_max=20.0)
XI = dict(A_s=1500.0, f_y=300.0, A_c=6000.0, f_c=30.0)
# (function, valid arguments, the argument at the edge, the value that raises, the nearest
# value that passes, the message)
GUARDS = [
    (eta_s, ETA_S, "alpha_s", -TINY, 0.0, "alpha_s must be non-negative"),
    (eta_s, ETA_S, "f_c", 0.0, TINY, "f_c and f_y must be positive"),
    (eta_s, ETA_S, "f_y", 0.0, TINY, "f_c and f_y must be positive"),
    (eta_c, ETA_C, "dt_ratio", 0.0, TINY, "D/t and f_c must be positive"),
    (eta_c, ETA_C, "f_c", 0.0, TINY, "D/t and f_c must be positive"),
    (eta_c, ETA_C, "xi_c", -TINY, 0.0, "xi_c must be non-negative"),
    (biaxial_ratio, dict(f_c=30.0), "f_c", 0.0, TINY, POSITIVE),
    (kc, dict(f_c=30.0), "f_c", 0.0, TINY, POSITIVE),
    (peak_strain_unconfined, dict(f_c=30.0), "f_c", 0.0, TINY, POSITIVE),
    (fracture_energy, FRACTURE, "f_c", 0.0, TINY, POSITIVE),
    (fracture_energy, FRACTURE, "d_max", -TINY, 0.0, "d_max must be non-negative"),
    *[(confining_pressure, PRESSURE, name, 0.0, TINY, "f_y, f_c and D/t must be positive")
      for name in PRESSURE],
    (confined_peak_strain, PEAK, "eps_c0", 0.0, TINY, "eps_c0 and f_c must be positive"),
    (confined_peak_strain, PEAK, "f_c", 0.0, TINY, "eps_c0 and f_c must be positive"),
    (confined_peak_strain, PEAK, "f_r", -TINY, 0.0, "f_r must be non-negative"),
    (residual_stress, dict(xi_c=1.0, f_c=30.0), "xi_c", -TINY, 0.0, "xi_c must be non-negative"),
    (residual_stress, dict(xi_c=1.0, f_c=30.0), "f_c", 0.0, TINY, POSITIVE),
    (softening_params, dict(xi_c=1.0), "xi_c", -TINY, 0.0, "xi_c must be non-negative"),
    (classify_concrete, dict(f_c=30.0), "f_c", 0.0, TINY, POSITIVE),
    (confinement_factor, XI, "A_s", -TINY, 0.0, "A_s and f_y must be non-negative"),
    (confinement_factor, XI, "f_y", -TINY, 0.0, "A_s and f_y must be non-negative"),
    # A_c*f_c == 0.0 catches a zero as well, so these guards are checked just below it
    (confinement_factor, XI, "A_c", -TINY, TINY,
     "A_c*f_c must be positive, got A_c=-1e-09 and f_c=30"),
    (confinement_factor, XI, "f_c", -TINY, TINY,
     "A_c*f_c must be positive, got A_c=6000 and f_c=-1e-09"),
]


@pytest.mark.parametrize("function,arguments,name,raises,passes,message", [
    pytest.param(*guard, id=f"{guard[0].__name__}-{guard[2]}") for guard in GUARDS])
def test_guard_raises_at_its_edge_and_passes_next_to_it(function, arguments, name, raises,
                                                        passes, message):
    with pytest.raises(ValueError) as exc:
        function(**{**arguments, name: raises})
    assert str(exc.value) == message
    result = function(**{**arguments, name: passes})
    values = result if isinstance(result, tuple) else (result,)
    assert all(math.isfinite(value) for value in values if isinstance(value, float))
