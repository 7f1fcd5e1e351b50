"""Link-level statistics of the underlay two-hop network.

The secondary transmitter of each hop sends with the largest power allowed by
both its own peak constraint and the interference cap at the primary receiver.
With unit-mean Rayleigh fading on both the data channel (mean Omega_h) and the
interference channel (mean Omega_g), the received SNR of hop i is

    gamma_i = min(gamma_max, gamma_p / |g_i|^2) |h_i|^2

which is fully described by the pair (lam, mu) plus the derived probability p
that the interference cap binds. p = 0 recovers the peak-power-only regime,
p = 1 with infinite lam the interference-limited regime.

A link may also carry a forced p that differs from exp(-mu/lam). The marginal
CCDF and PDF take any p in [0, 1]; sample_snr draws only a consistent link or
a forced p = 0. An infinite lam always means p = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NodeGeometry",
    "PowerConstraints",
    "LinkParams",
    "derive_link_params",
    "link_ccdf",
    "link_pdf",
    "sample_snr",
]


def _pow(base: float, exponent: float, what: str) -> float:
    """base ** exponent; ValueError naming what if that overflows or underflows to 0."""
    try:
        value = base**exponent
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} is {value:g}, outside the positive floats")
    return value


@dataclass(frozen=True)
class NodeGeometry:
    """Node distances (source-relay, relay-destination, source-primary, relay-primary)."""

    d_sr: float
    d_rd: float
    d_sp: float
    d_rp: float
    alpha: float = 3.0

    def __post_init__(self) -> None:
        for name in ("d_sr", "d_rd", "d_sp", "d_rp", "alpha"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class PowerConstraints:
    """Peak transmit SNR and interference-cap SNR, stored in dB."""

    gamma_max_db: float
    gamma_p_db: float

    def __post_init__(self) -> None:
        for name in ("gamma_max_db", "gamma_p_db"):
            _pow(10.0, getattr(self, name) / 10.0, f"10^({name}/10)")

    @property
    def gamma_max(self) -> float:
        return 10.0 ** (self.gamma_max_db / 10.0)

    @property
    def gamma_p(self) -> float:
        return 10.0 ** (self.gamma_p_db / 10.0)


@dataclass(frozen=True)
class LinkParams:
    """(lam, mu, p) statistical description of one hop.

    lam  mean SNR when only the peak power constraint binds (may be inf),
    mu   mean SNR of the interference-limited branch,
    p    probability the interference cap binds; equals exp(-mu/lam) whenever
         the parameters come from one physical configuration, and must be 1
         when lam is infinite.
    """

    lam: float
    mu: float
    p: float

    def __post_init__(self) -> None:
        if not (self.lam > 0.0):
            raise ValueError("lam must be positive (inf allowed)")
        if not (self.mu > 0.0) or math.isinf(self.mu):
            raise ValueError("mu must be positive and finite")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        if math.isinf(self.lam) and self.p != 1.0:
            raise ValueError("infinite lam requires p = 1")

    @classmethod
    def from_lambda_mu(cls, lam: float, mu: float) -> "LinkParams":
        p = 1.0 if math.isinf(lam) else math.exp(-mu / lam)
        return cls(lam=lam, mu=mu, p=p)

    @property
    def consistent(self) -> bool:
        """True when p matches exp(-mu/lam), i.e. the link is physically samplable."""
        p_ref = 1.0 if math.isinf(self.lam) else math.exp(-self.mu / self.lam)
        return abs(self.p - p_ref) <= 1e-12


def derive_link_params(
    geom: NodeGeometry,
    pc: PowerConstraints,
    omega_h_s: float | None = None,
    omega_h_r: float | None = None,
) -> tuple[LinkParams, LinkParams]:
    """Map geometry and power constraints to per-hop (lam, mu, p).

    Path loss gives Omega = d^(-alpha) on every channel; the data-channel
    Omega_h values can be overridden (sweeps sometimes pin them directly while
    keeping the interference geometry).
    """
    if omega_h_s is None:
        omega_h_s = _pow(geom.d_sr, -geom.alpha, "d_sr^(-alpha)")
    if omega_h_r is None:
        omega_h_r = _pow(geom.d_rd, -geom.alpha, "d_rd^(-alpha)")
    if not (omega_h_s > 0.0) or not (omega_h_r > 0.0):
        raise ValueError("fading overrides must be positive")
    omega_g_s = _pow(geom.d_sp, -geom.alpha, "d_sp^(-alpha)")
    omega_g_r = _pow(geom.d_rp, -geom.alpha, "d_rp^(-alpha)")
    hop_s = LinkParams.from_lambda_mu(
        lam=pc.gamma_max * omega_h_s, mu=pc.gamma_p * omega_h_s / omega_g_s
    )
    hop_r = LinkParams.from_lambda_mu(
        lam=pc.gamma_max * omega_h_r, mu=pc.gamma_p * omega_h_r / omega_g_r
    )
    return hop_s, hop_r


def link_ccdf(link: LinkParams, s):
    """Marginal CCDF Pr{gamma > s} = e^(-s/lam) [1 - p (1 - mu/(s+mu))]."""
    s = np.asarray(s, dtype=float)
    decay = np.exp(-s / link.lam) if not math.isinf(link.lam) else np.ones_like(s)
    out = decay * (1.0 - link.p * (1.0 - link.mu / (s + link.mu)))
    return float(out) if out.ndim == 0 else out


def link_pdf(link: LinkParams, s):
    """Marginal PDF of the link SNR; written so the infinite-lam case stays finite."""
    s = np.asarray(s, dtype=float)
    p, mu = link.p, link.mu
    if math.isinf(link.lam):
        out = p * mu / (s + mu) ** 2
    else:
        out = np.exp(-s / link.lam) * (
            (1.0 - p * (1.0 - mu / (s + mu))) / link.lam + p * mu / (s + mu) ** 2
        )
    return float(out) if out.ndim == 0 else out


def sample_snr(link: LinkParams, rng: np.random.Generator, size=None):
    """Draw instantaneous SNR(s): min(lam, mu/v) * u with u, v unit exponentials.

    Both exponentials are always consumed, so matched-seed runs stay aligned
    across links of every kind. A link must carry p = exp(-mu/lam) (p = 1 at
    infinite lam) or the forced p = 0, which draws the peak-power-only SNR
    lam * u; any other forced p has no sampling law here.
    """
    u = rng.standard_exponential(size)
    v = rng.standard_exponential(size)
    if math.isinf(link.lam):
        return link.mu * u / v
    if not link.consistent:
        if link.p == 0.0:
            return link.lam * u
        raise ValueError(
            f"link (lam={link.lam:g}, mu={link.mu:g}) has a forced p={link.p:g} "
            "that cannot be sampled: only p = exp(-mu/lam) or p = 0 can"
        )
    if np.ndim(v) == 0:
        return np.minimum(link.lam, link.mu / v) * u
    # min(lam, mu / v) * u, computed in v's storage: the same operations
    np.divide(link.mu, v, out=v)
    np.minimum(v, link.lam, out=v)
    v *= u
    return v
