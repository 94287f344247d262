"""Correctness checks computed apart from the program under test.

* :func:`fn_closed_form_error` recomputes every Figure 6-9 lane at
  T = 0 as ``J = A E^2 exp(-B/E)`` with ``E = GCR |V_GS| / X_TO``; the
  Fowler-Nordheim coefficients come from :mod:`scipy.constants`, the
  paper's barrier phi_B = 3.61 eV and m_ox = 0.42 m0 -- not from
  :mod:`repro`.
* :func:`scenario_error` applies the experiment's own paper
  shape checks, but only at the paper's operating point: away from it
  they legitimately fail (``fig5`` at 4.6 nm, for one).
* :func:`fingerprint` reduces an experiment result to exact bits, so a
  served result can be compared with the same scenario run in-process.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
from scipy import constants

from plans import OPERATING_POINT

BARRIER_EV = 3.61
MASS_RATIO = 0.42
#: Relative tolerance of the closed-form check. The program uses its own
#: constant set; the two agree to about 3e-8.
FN_RTOL = 1e-6


def fn_coefficients(
    barrier_ev: float = BARRIER_EV, mass_ratio: float = MASS_RATIO
) -> "tuple[float, float]":
    """FN ``A`` [A/V^2] and ``B`` [V/m] from CODATA constants."""
    q, h = constants.e, constants.h
    phi = barrier_ev * q
    a = q**3 / (8.0 * math.pi * h * phi)
    b = 8.0 * math.pi * math.sqrt(2.0 * mass_ratio * constants.m_e) * phi**1.5 / (
        3.0 * q * h
    )
    return a, b


_A, _B = fn_coefficients()


def _lanes(experiment_id: str, overrides: "dict[str, Any]"):
    """(GCR, X_TO [nm]) per series, in the order the figure lists them."""
    if experiment_id in ("fig6", "fig8"):
        return [(g, overrides["tunnel_oxide_nm"]) for g in sorted(overrides["gcrs"])]
    return [
        (overrides["gcr"], x)
        for x in sorted(overrides["tunnel_oxides_nm"], reverse=True)
    ]


def fn_closed_form_error(scenario, result) -> "str | None":
    """Why a Figure 6-9 result misses the closed form, or ``None``."""
    lanes = _lanes(scenario.experiment_id, dict(scenario.overrides))
    if len(lanes) != len(result.series):
        return f"{len(result.series)} series for {len(lanes)} lanes"
    for (gcr, xto_nm), series in zip(lanes, result.series):
        field = gcr * np.abs(np.asarray(series.x, dtype=float)) / (xto_nm * 1e-9)
        expected = _A * field**2 * np.exp(-_B / field)
        got = np.asarray(series.y, dtype=float)
        rel = np.max(np.abs(got - expected) / expected)
        if not rel <= FN_RTOL:
            return f"{series.label}: relative error {rel:.3g} > {FN_RTOL:g}"
    return None


def at_operating_point(scenario) -> bool:
    """Whether every override the scenario sets is the paper's value."""
    return all(
        key in OPERATING_POINT and value == OPERATING_POINT[key]
        for key, value in scenario.overrides.items()
    )


def scenario_error(scenario, result) -> "str | None":
    """Every check that applies to one scenario result; ``None`` if all pass."""
    if result.experiment_id != scenario.experiment_id:
        return f"result is {result.experiment_id!r}"
    if scenario.experiment_id in ("fig6", "fig7", "fig8", "fig9"):
        error = fn_closed_form_error(scenario, result)
        if error:
            return f"closed-form FN: {error}"
    if at_operating_point(scenario):
        failed = [c.claim for c in result.checks if not c.passed]
        if failed:
            return f"paper checks failed at the operating point: {failed}"
    return None


def _bits(value: Any) -> Any:
    """A hashable, exact image of one result field."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _bits(v)) for k, v in value.items()))
    return value


def fingerprint(result) -> tuple:
    """Exact bits of an experiment result (timings and cache counts aside)."""
    return (
        result.experiment_id,
        result.title,
        result.x_label,
        result.y_label,
        result.log_y,
        tuple(
            (s.label, _bits(np.asarray(s.x)), _bits(np.asarray(s.y)))
            for s in result.series
        ),
        _bits(dict(result.parameters)),
        tuple((c.claim, bool(c.passed), c.detail) for c in result.checks),
    )
