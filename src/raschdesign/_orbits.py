"""The information matrix of an invariant design, on the orbits of S_k.

At an exchangeable parameter, beta_A = b_|A|, the intensity of a setting
with c active rules is lambda_c, log lambda_c = sum_{j<=d} C(c,j) b_j, and
the settings fall into k + 1 orbits: orbit c holds the C(k,c) settings
with c active rules.  A design with weight omega_c spread evenly over
orbit c has the information matrix

    M = sum_c omega_c lambda_c G_c / C(k,c),  G_c(A,B) = C(k-u, c-u),

with u = |A|B|, as C(k-u, c-u) settings of orbit c contain A|B.  Every
such M commutes with the permutations of the rules, and Schrijver ("New
code upper bounds from the Terwilliger algebra and semidefinite
programming", IEEE Trans. IT 51, 2005) block-diagonalizes that algebra:
block r = 0..min(d, k//2) has rows i, l in {r, .., min(d, k-r)}, occurs
mu_r = C(k,r) - C(k,r-1) times, and holds

    Phi_r(G_c)[i,l] = sum_t beta^t_{i,l,r} C(k-(i+l-t), c-(i+l-t)),
    beta^t_{i,l,r} = C(k-2r, i-r)^(-1/2) C(k-2r, l-r)^(-1/2)
        sum_u (-1)^(u-t) C(u,t) C(k-2r, u-r) C(k-r-u, i-u) C(k-r-u, l-u),

where t = |A & B|.  The settings of one orbit span each irreducible
module of S_k at most once, so Phi_r(G_c) has rank one:

    Phi_r(G_c) = g g^T,  g_i = sqrt(C(c-r, i-r) C(k-i-r, c-i)),

as g_i^2 is the eigenvalue, on module r, of W W^T for the inclusion
matrix W of the i-sets in the c-sets (a test checks g against the sum
above).  With h_rc = g / sqrt(C(k,c)) and
B_r = sum_c omega_c lambda_c h_rc h_rc^T, log det M = sum_r mu_r log det B_r
and the sensitivity, constant on an orbit, is
d_c = lambda_c sum_r mu_r |L_r^-1 h_rc|^2 for B_r = L_r L_r^T.  A step of the
ascent on the orbit weights costs O(k d^3), and no p x p array exists.  The
vertex exchange of ``optimizer`` moves weight between whole orbits; block r
holds lambda_c |L_r^-1 h_rc|^2 of d_c, which gives its P_r and N_r
(``Orbits.pair``).
An invariant design's d_c is its equivalence-theorem value on every
setting of orbit c, so ``regions.kw_certificate`` reads its verdict from
``Orbits.evaluate`` too.  ``optimizer`` and ``regions`` import this module
only for an exchangeable parameter.
"""

from __future__ import annotations

import math

from ._numpy import np
from .exceptions import SingularInformation
from .model import Design, _LOG_MAX, _check_model, _cholesky, _overflow, choose


def orbit_blocks(k: int, d: int):
    """The vectors ``h[r, c]``, zero-padded to d + 1 rows, their blocks'
    multiplicities ``mu`` and the identity ``pad`` on the padding."""
    blocks = range(min(d, k // 2) + 1)
    h = np.zeros((len(blocks), k + 1, d + 1))
    pad = np.zeros((len(blocks), d + 1, d + 1))
    for r in blocks:
        rows = range(r, min(d, k - r) + 1)
        for a in range(len(rows), d + 1):
            pad[r, a, a] = 1.0
        for c in range(k + 1):
            for a, i in enumerate(rows):
                h[r, c, a] = math.sqrt(
                    choose(c - r, i - r) * choose(k - i - r, c - i) / math.comb(k, c))
    mu = np.array([math.comb(k, r) - choose(k, r - 1) for r in blocks], dtype=float)
    return h, mu, pad


class Orbits:
    """The ascent's kernel on the orbit weights omega_0..omega_k.

    ``optimizer`` runs the same ascent on this kernel as on the 2^k
    lattice; ``theta`` must be exchangeable.
    """

    def __init__(self, theta, m) -> None:
        _check_model(theta, m)
        k, d = m.k, m.d
        vals = theta.with_base_zero().values
        # b_j is beta of the first set of size j, which starts at sum_{i<j} C(k,i)
        b = [float(vals[sum(math.comb(k, i) for i in range(j))]) for j in range(d + 1)]
        logs = np.array([sum(math.comb(c, j) * b[j] for j in range(d + 1))
                         for c in range(k + 1)])
        if logs.max() > _LOG_MAX:
            c = int(logs.argmax())
            raise _overflow((1 << c) - 1, float(logs[c]), k)
        self.k, self.p = k, m.p
        self.sizes = np.array([math.comb(k, c) for c in range(k + 1)], dtype=float)
        self.lam = np.exp(logs)
        self.h, self.mu, self.pad = orbit_blocks(k, d)

    def start(self) -> np.ndarray:
        """The uniform design on all 2^k settings."""
        return self.sizes / float(1 << self.k)

    def evaluate(self, w: np.ndarray):
        """log det M, the sensitivities d_c and the vectors L_r^-1 h_rc."""
        blocks = np.einsum("c,rci,rcj->rij", w * self.lam, self.h, self.h) + self.pad
        try:
            low = _cholesky(blocks)
        except np.linalg.LinAlgError as exc:
            raise SingularInformation(
                "information matrix of the current iterate is singular"
            ) from exc
        z = np.linalg.solve(low, np.swapaxes(self.h, 1, 2))
        d = self.lam * (self.mu @ np.einsum("ric,ric->rc", z, z))
        logs = np.log(np.diagonal(low, axis1=1, axis2=2)).sum(axis=1)
        return 2.0 * float(self.mu @ logs), d, z

    def pair(self, d, z, j, a):
        """s_r = P_r - N_r and t_r = P_r N_r - X_r^2 of the exchange from orbit
        a to orbit j, with P_r = lambda_j |z_rj|^2, N_r = lambda_a |z_ra|^2 and
        X_r^2 = lambda_j lambda_a (z_rj . z_ra)^2; ``moved`` needs nothing."""
        z_j, z_a = z[:, :, j], z[:, :, a]
        plus = self.lam[j] * np.einsum("ri,ri->r", z_j, z_j)
        minus = self.lam[a] * np.einsum("ri,ri->r", z_a, z_a)
        cross = self.lam[j] * self.lam[a] * np.einsum("ri,ri->r", z_j, z_a) ** 2
        return plus - minus, np.maximum(plus * minus - cross, 0.0), None

    def moved(self, w, d, carry, alpha):
        """The sensitivities of the moved weights ``w``."""
        return self.evaluate(w)[1]

    def saturated(self, w: np.ndarray):
        """The uniform design on the orbits of largest per-setting weight.

        When the first orbits of the support in that order hold exactly p
        settings, the D-optimal weights on those settings are 1/p each.
        Returns that design as orbit weights and as a ``Design``, else None.
        The support may be those orbits already: a converged saturated run
        then returns 1/p exactly, not its iterate.
        """
        support = np.flatnonzero(w)
        order = support[np.argsort(-(w[support] / self.sizes[support]), kind="stable")]
        filled = np.cumsum(self.sizes[order])
        count = int(np.searchsorted(filled, self.p)) + 1
        if count > len(order) or filled[count - 1] != self.p:
            return None
        top = order[:count]
        uniform = np.zeros_like(w)
        uniform[top] = self.sizes[top] / self.p
        per_setting = np.zeros_like(w)
        per_setting[top] = 1.0 / self.p
        return uniform, self._expand(per_setting)

    def design(self, w: np.ndarray) -> Design:
        """The design with weight omega_c / C(k,c) on each setting of orbit c."""
        return self._expand(w / self.sizes)

    def _expand(self, per_setting: np.ndarray) -> Design:
        """The design with weight ``per_setting[c]`` on each setting of orbit c."""
        return Design(self.k, dict(zip(*orbit_settings(per_setting))))


def orbit_settings(per_setting: np.ndarray) -> tuple[list[int], list[float]]:
    """The settings of the orbits c with ``per_setting[c]`` nonzero, k = its
    length - 1, in mask order, and ``per_setting[c]`` of each.

    The settings come 2^12 at a time: |x| of a block is |x| of its low 12
    bits, from one table, plus |x| of the block's high bits.  So the masks
    come sorted, and no 2^k array exists.
    """
    k = per_setting.size - 1
    low_bits = min(k, 12)
    size = np.zeros(1 << low_bits, dtype=np.intp)
    for i in range(low_bits):
        size[1 << i:2 << i] = size[:1 << i] + 1
    keys: list[int] = []
    weights: list[float] = []
    for high in range(1 << (k - low_bits)):
        block = per_setting[size + high.bit_count()]
        at = np.flatnonzero(block)
        keys += (at + (high << low_bits)).tolist()
        weights += block[at].tolist()
    return keys, weights


def orbit_sensitivities(w: Design, theta, m):
    """d_c of the S_k-invariant design ``w`` at the exchangeable ``theta``, one
    per orbit, or None when ``w`` is not invariant, does not match ``m`` or
    an intensity overflows; the lattice then decides, or raises.

    ``w`` is invariant when it puts one weight, compared exactly, on every
    setting of each orbit it touches; omega_c sums its weights on orbit c.
    d_c is then d(x) on every setting x of orbit c.  An overflowing
    intensity is left to the lattice, which names its setting.  A singular
    design raises ``SingularInformation``.
    """
    if w.k != m.k or theta.model != m:
        return None
    k = m.k
    x = np.fromiter(w.weights, dtype=np.intp, count=len(w.weights))
    weights = np.fromiter(w.weights.values(), dtype=float, count=x.size)
    c = np.zeros(x.size, dtype=np.intp)
    for i in range(k):
        c += (x >> i) & 1
    counts = np.bincount(c, minlength=k + 1)
    sizes = np.array([math.comb(k, j) for j in range(k + 1)])
    per_setting = np.zeros(k + 1)
    per_setting[c] = weights
    if ((counts != 0) & (counts != sizes)).any() or (per_setting[c] != weights).any():
        return None
    try:
        orbits = Orbits(theta, m)
    except ValueError:
        return None
    return orbits.evaluate(np.bincount(c, weights=weights, minlength=k + 1))[1]


def orbit_members(k: int, firsts: np.ndarray) -> list[int]:
    """Every setting of the orbits whose first masks, (1 << c) - 1, are
    ``firsts``, in mask order."""
    on = np.zeros(k + 1)
    on[[x.bit_length() for x in firsts.tolist()]] = 1.0
    return orbit_settings(on)[0]
