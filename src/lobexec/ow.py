"""Recursive scheme for the block book with permanent impact.

ow_cost is the classical quadratic cost for a block book with an extra
permanent-impact slope lam; it ties the optimizers back to the known
block-book solution for every admissible lam. It admits a
dynamic-programming solution whose value function is quadratic in the
state (remaining shares X, decaying impact D). The backward recursion
computes its coefficients alpha/beta/gamma and the control coefficients
delta/epsilon/phi; all six also have closed forms, kept here as an
independent check of the recursion.

The recursion's D is the *decaying* component of the extra spread only.
The permanent component lam * (X0 - X) is folded into the coefficients
(that is where lam enters alpha_N and epsilon), which is what makes the
resulting schedule identical for every admissible lam, and equal to the
closed-form block schedule of the general solver.

Indexing: coefficients live at nodes n = 0..N; the trade at node n uses
the coefficients at n+1, and the last trade clears the remainder.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .costs import Strategy, as_trades
from .dynamics import MarketParams
from .errors import InvalidParam


@dataclass(frozen=True)
class OWCoefficients:
    q: float
    lam: float
    kappa: float
    decay: float
    n_steps: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    epsilon: np.ndarray
    phi: np.ndarray


def _check_params(q: float, lam: float) -> float:
    """kappa = 1/q - lam, the decaying part of the impact; q must be
    positive with 1/q finite, and lam finite and below 1/q, so that kappa
    is finite and positive."""
    if not (q > 0.0 and 1.0 / q < math.inf):
        raise InvalidParam(f"depth must be positive, with 1/q finite, got {q}")
    kappa = 1.0 / q - lam
    if not 0.0 < kappa < math.inf:
        raise InvalidParam(f"permanent slope {lam} must be finite and below 1/q = {1.0 / q}")
    return kappa


def ow_cost(q: float, lam: float, params: MarketParams, strategy, a0: float = 0.0) -> float:
    """Quadratic block-book cost with permanent-impact slope lam.

    kappa = 1/q - lam is the decaying part of the impact. Requires
    lam < 1/q so that kappa > 0.
    """
    kappa = _check_params(q, lam)
    if not math.isfinite(a0):
        raise InvalidParam(f"unaffected ask a0 must be finite, got {a0}")
    x = np.asarray(as_trades(strategy), dtype=float)
    if x.size != params.steps + 1:
        raise InvalidParam(f"expected {params.steps + 1} trades, got {x.size}")
    a = params.decay
    tot = float(x.sum())
    decayed = 0.0
    cross = 0.0
    for k in range(x.size):
        if k > 0:
            decayed *= a
        cross += decayed * x[k]
        decayed += x[k]
    return (
        a0 * tot
        + 0.5 * lam * tot * tot
        + kappa * cross
        + 0.5 * kappa * float(np.dot(x, x))
    )


def backward_coeffs(q: float, lam: float, params: MarketParams) -> OWCoefficients:
    """Value-function coefficients by backward recursion from node N."""
    kappa = _check_params(q, lam)
    a = params.decay
    n_steps = params.steps
    al = np.empty(n_steps + 1)
    be = np.empty(n_steps + 1)
    ga = np.empty(n_steps + 1)
    de = np.empty(n_steps + 1)
    ep = np.empty(n_steps + 1)
    ph = np.empty(n_steps + 1)
    al[n_steps] = 1.0 / (2.0 * q) - lam
    be[n_steps] = 1.0
    ga[n_steps] = 0.0
    for n in range(n_steps, -1, -1):
        inv = 1.0 / (2.0 * q) + al[n] - be[n] * kappa * a + ga[n] * kappa * kappa * a * a
        if not inv > 0.0 or not np.isfinite(inv):
            raise InvalidParam(f"degenerate recursion at node {n}: 1/delta = {inv}")
        de[n] = 1.0 / inv
        ep[n] = lam + 2.0 * al[n] - be[n] * kappa * a
        ph[n] = 1.0 - be[n] * a + 2.0 * ga[n] * kappa * a * a
        if n > 0:
            al[n - 1] = al[n] - 0.25 * de[n] * ep[n] * ep[n]
            be[n - 1] = be[n] * a + 0.5 * de[n] * ep[n] * ph[n]
            ga[n - 1] = ga[n] * a * a - 0.25 * de[n] * ph[n] * ph[n]
    return OWCoefficients(q, lam, kappa, a, n_steps, al, be, ga, de, ep, ph)


def closed_coeffs(q: float, lam: float, params: MarketParams) -> OWCoefficients:
    """The same coefficients from their closed forms.

    With m = N-n, b = 1-a = -expm1(-rho tau) and D = m b + (1+a):
        alpha_n   = [(1+a) - q lam (m b + 2(1+a))] / (2 q D)
        beta_n    = (1+a) / D
        gamma_n   = -m b / (2 kappa D)
        delta_n   = 2 D / (kappa (1-a^2) (m+2-m a))
        epsilon_n = kappa (1-a^2) / D
        phi_n     = (1-a^2) (m+1-m a) / D
    These are the forms in r = 1/a multiplied through by a power of a, so
    they stay finite as rho tau grows, down to a = 0, where 1/a overflows.
    """
    kappa = _check_params(q, lam)
    a = params.decay
    b = params.one_minus_a
    b2 = b * (1.0 + a)  # 1 - a^2
    m = np.arange(params.steps, -1, -1, dtype=float)
    den = m * b + (1.0 + a)
    al = ((1.0 + a) - q * lam * (m * b + 2.0 * (1.0 + a))) / (2.0 * q * den)
    be = (1.0 + a) / den
    ga = -m * b / (2.0 * kappa * den)
    de = 2.0 * den / (kappa * b2 * (m + 2.0 - m * a))
    ep = kappa * b2 / den
    ph = b2 * (m + 1.0 - m * a) / den
    return OWCoefficients(q, lam, kappa, a, params.steps, al, be, ga, de, ep, ph)


def forward_strategy(coeffs: OWCoefficients, params: MarketParams, x0: float) -> Strategy:
    """Run the control law forward from a full inventory.

    xi_n = delta_{n+1} (epsilon_{n+1} X_n - phi_{n+1} D_n) / 2, with D the
    decaying impact component, D_{n+1} = a (D_n + kappa xi_n); the final
    trade clears what is left.
    """
    if coeffs.n_steps != params.steps:
        raise InvalidParam(
            f"coefficients are for N={coeffs.n_steps}, params have N={params.steps}"
        )
    a = params.decay
    remaining = x0
    d_temp = 0.0
    trades = []
    for n in range(params.steps):
        xi = 0.5 * coeffs.delta[n + 1] * (
            coeffs.epsilon[n + 1] * remaining - coeffs.phi[n + 1] * d_temp
        )
        trades.append(float(xi))
        remaining -= xi
        d_temp = a * (d_temp + coeffs.kappa * xi)
    trades.append(float(remaining))
    return Strategy(tuple(trades))


def coeffs_to_csv(coeffs: OWCoefficients, path) -> None:
    """Write ``n,alpha,beta,gamma,delta,epsilon,phi`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "alpha", "beta", "gamma", "delta", "epsilon", "phi"])
        for n in range(coeffs.n_steps + 1):
            writer.writerow(
                [n]
                + [
                    f"{arr[n]:.17g}"
                    for arr in (
                        coeffs.alpha,
                        coeffs.beta,
                        coeffs.gamma,
                        coeffs.delta,
                        coeffs.epsilon,
                        coeffs.phi,
                    )
                ]
            )
