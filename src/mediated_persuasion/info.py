"""Stochastic-matrix information structures and belief algebra.

Conventions used throughout the library:

* Information structures are column-stochastic matrices: entry ``(i, j)``
  is the probability of realization ``i`` conditional on state (or
  upstream realization) ``j``. A structure is a float array, checked once
  by ``validate_stochastic`` where it enters the library and used as given
  from then on: nothing clips it, so an entry within ``TOL`` below 0 stays.
* Two-state objects order their columns (state 1, state 2 = target) and a
  belief is the posterior probability of the target state.
* All algebraic identities are checked to ``TOL = 1e-9``; the worked
  inputs are exact rationals, so double precision leaves a wide margin.
* Every Bayes update goes through three private kernels: ``_bayes`` (each
  signal's mass and posterior from its state likelihoods), ``_pair_weights``
  (the weights of an ordered posterior pair) and ``_composite`` (a signal's
  likelihoods from its posterior and weight, the inverse of ``_bayes``).
  ``_bayes`` gives a signal of mass at most ``TOL`` the prior, and each
  caller keeps one of three policies for such a signal: the prior
  (``posterior_pair``, ``vertex_profiles``), drop (``induced_tau``) or the
  limit along the experiment family (``pairs_along_family``).
* Every distribution built from atoms goes through one rules kernel,
  ``_belief_rows`` (drop, sort, merge), and one check, ``_checked_atoms``.
  Both work on batches of rows, and a batch pays only for the rules that
  fire: the merge loop runs only when some atom merges, and the checks are
  told apart only when one fails. With the three kernels above they are
  where exact twins plug in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BarycenterMismatch,
    ColumnSumMismatch,
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    PriorOutsideSupport,
    TooFewRealizations,
)

TOL = 1e-9


def _as_array(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def validate_stochastic(raw) -> np.ndarray:
    """The float array of a column-stochastic structure with m >= n, as given.

    Raises on the first failed check: not 2-d, an entry that is not finite,
    an entry below -``TOL``, a column sum off 1 by more than ``TOL``, fewer
    realizations than states.
    """
    a = _as_array(raw)
    finite = np.isfinite(a)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonFiniteEntry(int(i), int(j), float(a[i, j]))
    worst = a.min()
    if worst < -TOL:
        i, j = np.unravel_index(int(a.argmin()), a.shape)
        raise NegativeEntry(int(i), int(j), float(worst))
    dev = a.sum(axis=0) - 1.0
    j = int(np.abs(dev).argmax())
    if abs(dev[j]) > TOL:
        raise ColumnSumMismatch(j, float(dev[j]))
    if a.shape[0] < a.shape[1]:
        raise TooFewRealizations(f"{a.shape[0]} realizations for {a.shape[1]} states")
    return a


def compose(sigma, x) -> np.ndarray:
    """Composite structure ``sigma @ x`` (signal after experiment), checked."""
    s, e = _as_array(sigma), _as_array(x)
    if s.shape[1] != e.shape[0]:
        raise DimensionMismatch(f"cannot compose {s.shape} with {e.shape}")
    return validate_stochastic(s @ e)


def _bayes(in_state0, in_state1, prior: float):
    """Mass and posterior of each signal from its state likelihoods, broadcast
    over arrays of at least one dimension; mass at most ``TOL`` gets the prior."""
    p = (1.0 - prior) * in_state0 + prior * in_state1
    with np.errstate(invalid="ignore", divide="ignore"):
        q = prior * in_state1 / p
    q[p <= TOL] = prior
    return p, q


def _pair_weights(q1, q2, prior: float):
    """Weights (w1, w2) of the ordered posterior pair (q1, q2), clamped into
    [0, 1]; a pair of width at most ``TOL`` is read as width 1. The ``+ 0.0``
    turns a clamped -0.0 into 0.0."""
    width = q2 - q1
    w2 = np.clip((prior - q1) / np.where(np.abs(width) <= TOL, 1.0, width), 0.0, 1.0) + 0.0
    return 1.0 - w2, w2


def _composite(q, w, prior: float):
    """State likelihoods (in state 0, in state 1) of a signal with posterior
    ``q`` and weight ``w``; the inverse of :func:`_bayes`."""
    return (1.0 - q) * w / (1.0 - prior), q * w / prior


def _row_dots(v, p) -> np.ndarray:
    """``v[i] @ p[i]`` for each row of two (n, k) arrays, bit for bit: a
    stacked ``matmul`` reduces each row as ``@`` does, where ``einsum`` or
    ``(v * p).sum(axis=1)`` can round differently."""
    return np.matmul(v[:, None, :], p[:, :, None])[:, 0, 0]


def _belief_rows(beliefs, probs):
    """The rules that turn atoms into a ``BeliefDistribution``, on each row of
    two (n, k) arrays: drop atoms of probability at most ``TOL``, order the
    rest as (belief, probability) tuples sort, and merge each into the last
    kept atom when their beliefs are within ``TOL``. Returns the rows
    left-aligned, cut to the longest and zero past each row's atoms, and
    each row's number of atoms.

    Until an atom merges, the last kept atom is the sorted atom before it, so
    the per-column merge loop runs only when some kept atom lies within
    ``TOL`` of the one before it; otherwise the sorted rows are the result."""
    p = np.asarray(probs, dtype=float)
    keep = p > TOL
    b, p = np.where(keep, beliefs, 0.0), np.where(keep, p, 0.0)
    rows = np.arange(len(p))
    order = rows[:, None], np.lexsort((p, b, ~keep), axis=-1)  # dropped atoms last
    b, p, keep = b[order], p[order], keep[order]
    with np.errstate(all="ignore"):  # a non-finite atom makes NaN here, which the checks reject
        merges = (keep[:, 1:] & (np.abs(b[:, 1:] - b[:, :-1]) <= TOL)).any()
    if not merges:
        size = keep.sum(axis=1)
        k = int(size.max(initial=0))
        return b[:, :k], p[:, :k], size
    # the atoms go to columns 1, 2, ...; column 0 has a NaN belief, so no atom merges into it
    out_b, out_p = np.zeros((2, len(p), p.shape[1] + 1))
    out_b[:, 0] = np.nan
    size = np.zeros(len(p), dtype=int)
    with np.errstate(all="ignore"):
        for bj, pj, kj in zip(b.T, p.T, keep.T):  # one pass per column
            lb, lp = out_b[rows, size], out_p[rows, size]
            merge = kj & (np.abs(bj - lb) <= TOL)
            q = lp + pj
            at = size + ~merge  # a dropped atom writes its zeros past the row's atoms
            out_b[rows, at] = np.where(merge, (lb * lp + bj * pj) / q, bj)
            out_p[rows, at] = np.where(merge, q, pj)
            size += kj & ~merge
    k = int(size.max(initial=0))
    return out_b[:, 1 : k + 1], out_p[:, 1 : k + 1], size


def _checked_atoms(beliefs, probs, size, prior: float):
    """The checks of a ``BeliefDistribution`` on each row i of two (n, k)
    arrays whose first ``size[i]`` entries are its atoms, in one pass.

    Raises the error of the first row that fails a check: an atom that is not
    finite (NaN or infinite), a row with no atom, a negative probability,
    probabilities that do not sum to 1, a belief outside [0, 1], beliefs that
    do not increase by more than ``TOL``, or a barycenter off the prior (or a
    NaN prior). Returns both arrays clipped into [0, 1].

    The checks run once over the whole batch, as one conjunction; only when
    it fails are they run row by row to find the first failing row and its
    error.
    """
    size = np.asarray(size)
    atom = np.arange(beliefs.shape[1]) < size[:, None]
    b, p = np.where(atom, beliefs, 0.0), np.where(atom, probs, 0.0)  # a zero pad passes each check
    passed = bool(np.isfinite(b).all() and np.isfinite(p).all())
    if passed:
        bary = _row_dots(b, p)
        passed = bool(
            size.min(initial=1) > 0
            and p.min(initial=0.0) >= -TOL
            and np.abs(p.sum(axis=1) - 1.0).max(initial=0.0) <= TOL
            and b.min(initial=0.0) >= -TOL
            and b.max(initial=0.0) <= 1.0 + TOL
            and not ((b[:, 1:] - b[:, :-1] <= TOL) & atom[:, 1:]).any()
            and np.abs(bary - prior).max(initial=0.0) <= TOL
        )
    if not passed:
        raise _first_failure(b, p, size, atom, prior)
    return np.clip(beliefs, 0.0, 1.0), np.clip(probs, 0.0, 1.0)


def _first_failure(b, p, size, atom, prior: float) -> Exception:
    """The error of the first row of a batch that fails a check of
    :func:`_checked_atoms`, its zero-padded atoms in ``b`` and ``p``."""
    finite = np.isfinite(b).all(axis=1) & np.isfinite(p).all(axis=1)
    # such a row fails that check first, and is zeroed so the checks below compute no NaN
    b, p = np.where(finite[:, None], b, 0.0), np.where(finite[:, None], p, 0.0)
    total, bary = p.sum(axis=1), _row_dots(b, p)
    checks = (
        ~finite,
        size == 0,
        p.min(axis=1, initial=0.0) < -TOL,
        np.abs(total - 1.0) > TOL,
        (b.min(axis=1, initial=0.0) < -TOL) | (b.max(axis=1, initial=0.0) > 1.0 + TOL),
        ((b[:, 1:] - b[:, :-1] <= TOL) & atom[:, 1:]).any(axis=1),
        ~(np.abs(bary - prior) <= TOL),
    )
    i = int(np.argmax(np.any(checks, axis=0)))
    return (
        ValueError("beliefs and probabilities must be finite"),
        ValueError("no atoms with positive probability"),
        ValueError(f"negative probability {p[i].min(initial=0.0):.3g}"),
        ValueError(f"probabilities sum to {total[i]:.12g}"),
        ValueError("beliefs outside [0, 1]"),
        ValueError("beliefs must be strictly increasing; merge duplicates"),
        BarycenterMismatch(f"barycenter {bary[i]:.12g} != prior {prior:.12g}"),
    )[next(k for k, fails in enumerate(checks) if fails[i])]


@dataclass(frozen=True, eq=False)
class BeliefDistribution:
    """Finite distribution of posterior beliefs, sorted, averaging to the prior."""

    beliefs: np.ndarray
    probs: np.ndarray
    prior: float

    def __post_init__(self):
        beliefs = np.atleast_1d(np.asarray(self.beliefs, dtype=float))
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if beliefs.shape != probs.shape or beliefs.ndim != 1 or beliefs.size == 0:
            raise ValueError("beliefs and probs must be equal-length 1-d arrays")
        checked = _checked_atoms(beliefs[None], probs[None], [beliefs.size], self.prior)  # a batch of one
        beliefs, probs = (a[0] for a in checked)
        beliefs.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_atoms(cls, atoms, prior: Optional[float] = None) -> "BeliefDistribution":
        """Build from (belief, prob) pairs by the rules of :func:`_belief_rows`,
        the path the outcomes of m-signal structures (:func:`induced_tau`)
        take too; without ``prior``, the merged atoms' barycenter is used."""
        a = np.array([(float(b), float(p)) for b, p in atoms]).reshape(1, -1, 2)
        return cls._from_rows(a[..., 0], a[..., 1], prior)[0][0]

    @classmethod
    def _from_rows(cls, beliefs, probs, prior: Optional[float]):
        """The distributions of the atoms in each row of two (n, k) arrays, by
        :func:`_belief_rows` and :func:`_checked_atoms` in one pass each, and
        their rows: read-only beliefs and probs, and sizes. A ``prior`` of
        None is the barycenter of a batch of one."""
        beliefs, probs, size = _belief_rows(beliefs, probs)
        if prior is None:
            with np.errstate(all="ignore"):  # a non-finite atom, which the checks reject
                prior = beliefs[0] @ probs[0]
        prior = float(prior)
        beliefs, probs = _checked_atoms(beliefs, probs, size, prior)
        beliefs.setflags(write=False)
        probs.setflags(write=False)
        out = []
        for i, k in enumerate(size.tolist()):
            tau = object.__new__(cls)  # checked above: no second __post_init__
            tau.__dict__.update(beliefs=beliefs[i, :k], probs=probs[i, :k], prior=prior)
            out.append(tau)
        return out, beliefs, probs, size

    def is_degenerate(self) -> bool:
        return self.beliefs.size == 1

    def allclose(self, other: "BeliefDistribution", tol: float = TOL) -> bool:
        return (
            self.beliefs.size == other.beliefs.size
            and bool(np.abs(self.beliefs - other.beliefs).max() <= tol)
            and bool(np.abs(self.probs - other.probs).max() <= tol)
        )

    def __repr__(self):
        inner = ", ".join(
            f"({b:.6g}, {p:.6g})" for b, p in zip(self.beliefs, self.probs)
        )
        return f"BeliefDistribution([{inner}], prior={self.prior:.6g})"


def induced_tau(b, prior: float) -> BeliefDistribution:
    """Distribution of posteriors induced by a two-state structure of any
    number of signals; a batch of one for :func:`_induced_taus`.

    ``b`` is checked as by :func:`validate_stochastic`, except that a single
    signal is allowed. Zero-probability signals are dropped; coincident
    posteriors merge.
    """
    try:
        a = validate_stochastic(b)
    except TooFewRealizations:  # the last check: a single signal induces the prior
        a = _as_array(b)
    if a.shape[1] != 2:
        raise DimensionMismatch("posteriors need a two-state structure")
    return _induced_taus(a[None], prior)[0][0]


def _induced_taus(a: np.ndarray, prior: float):
    """:func:`induced_tau` of each structure in the stack ``a``, shaped
    (n, m, 2), and their rows, as ``BeliefDistribution._from_rows`` builds
    them in one pass."""
    p, q = _bayes(a[..., 0], a[..., 1], prior)
    # no signal with mass (only through float dust): the prior is certain
    none = ~(p > TOL).any(axis=1)
    p[none, 0], q[none, 0] = 1.0, prior
    return BeliefDistribution._from_rows(q, p, prior)


def bayes_plausible_weights(b1, b2, prior: float):
    """Unique probabilities (p1, p2) with p1*b1 + p2*b2 = prior.

    Degenerate support b1 = b2 = prior returns (1/2, 1/2) by convention.
    Broadcasts over arrays of b1 and b2: floats for scalars, arrays else;
    the first pair whose support misses the prior, or holds a belief that is
    not finite, raises.
    """
    lo, hi = np.asarray(b1, dtype=float), np.asarray(b2, dtype=float)
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    finite = np.isfinite(lo) & np.isfinite(hi)
    outside = ~(finite & (lo - TOL <= prior) & (prior <= hi + TOL)) | (lo > hi + TOL)
    if outside.any():
        i = np.unravel_index(int(np.argmax(outside)), outside.shape)
        what = "finite beliefs" if not finite[i] else "b1 <= prior <= b2"
        raise PriorOutsideSupport(f"need {what}, got ({lo[i]}, {prior}, {hi[i]})")
    _, w_lo = _pair_weights(hi, lo, prior)
    p1 = np.where(hi - lo <= TOL, 0.5, w_lo)
    p2 = 1.0 - p1
    if p1.ndim == 0:
        return float(p1), float(p2)
    return p1, p2


# ---------------------------------------------------------------------------
# Mean-preserving spreads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MpsResult:
    """Outcome of a mean-preserving-spread test, with the transition witness.

    On a positive answer ``witness`` is the left-curtain coupling T: entry
    (i, j) is the share of contracted atom j that goes to spread atom i. Its
    columns sum to 1, ``T @ contracted.probs`` is ``spread.probs`` and
    ``spread.beliefs @ T`` is ``contracted.beliefs``, each within ``TOL``.
    """

    is_spread: bool
    witness: Optional[np.ndarray] = None  # rows: spread atoms, cols: contracted atoms

    def __bool__(self):
        return self.is_spread


def _validate_mps_witness(T, spread, contracted) -> bool:
    if T.min() < -TOL or abs(T.sum(axis=0) - 1.0).max() > TOL:
        return False
    transport = T @ contracted.probs - spread.probs
    means = spread.beliefs @ T - contracted.beliefs
    return abs(transport).max() <= TOL and abs(means).max() <= TOL


def _potential(tau: BeliefDistribution, x) -> np.ndarray:
    """The potential sum_i p_i |x - beta_i| of ``tau`` at each point of ``x``."""
    return np.abs(x[:, None] - tau.beliefs) @ tau.probs


def _window(s, g, edges, left) -> np.ndarray:
    """The mass the quantile window [s, s + g] takes from each atom, where an
    atom holds the mass ``left`` above the cumulative mass ``edges``."""
    return np.clip(s + g - edges, 0.0, left) - np.clip(s - edges, 0.0, left)


def _left_curtain(spread: BeliefDistribution, contracted: BeliefDistribution) -> np.ndarray:
    """The left-curtain coupling of ``contracted`` into ``spread``.

    The contracted atoms go from left to right. Each, of mass g and belief b,
    takes the quantile window [s, s + g] of mean b from the spread mass the
    earlier ones left. The mass a window takes from each atom is piecewise
    linear in s, with breakpoints where s or s + g crosses a cumulative mass,
    so the window's mean is piecewise linear and nondecreasing in s: s
    interpolates between the two breakpoints whose means bracket b.
    """
    a, left = spread.beliefs, spread.probs.copy()
    T = np.zeros((a.size, contracted.beliefs.size))
    for j, (b, g) in enumerate(zip(contracted.beliefs, contracted.probs)):
        edges = np.concatenate(([0.0], np.cumsum(left)))  # the mass left of each atom, then all of it
        starts = np.unique(np.clip(np.concatenate((edges, edges - g)), 0.0, max(edges[-1] - g, 0.0)))
        means = _window(starts[:, None], g, edges[:-1], left) @ a / g
        k = int(np.searchsorted(means, b))  # the first breakpoint whose mean reaches b
        if 0 < k < starts.size:
            s = starts[k - 1] + (b - means[k - 1]) * (starts[k] - starts[k - 1]) / (means[k] - means[k - 1])
        else:
            s = starts[min(k, starts.size - 1)]
        window = _window(s, g, edges[:-1], left)
        T[:, j] = window / g
        left = np.maximum(left - window, 0.0)
    return T


def is_mps(tau_spread: BeliefDistribution, tau_contracted: BeliefDistribution) -> MpsResult:
    """Test whether ``tau_spread`` is a mean-preserving spread of ``tau_contracted``.

    On the line, with equal means, it is exactly when the potential
    sum_i p_i |x - beta_i| of ``tau_spread`` is at least that of
    ``tau_contracted`` at every x (Rothschild and Stiglitz). Both potentials
    are piecewise linear with kinks at the atoms, so the atoms of either
    distribution suffice; each is compared within ``TOL``. A positive answer
    carries the left-curtain coupling (Beiglboeck and Juillet) as its
    witness, validated at ``TOL``.
    """
    if abs(tau_spread.prior - tau_contracted.prior) > TOL:
        raise BarycenterMismatch(
            f"priors differ: {tau_spread.prior} vs {tau_contracted.prior}"
        )
    x = np.concatenate((tau_spread.beliefs, tau_contracted.beliefs))
    if (_potential(tau_spread, x) < _potential(tau_contracted, x) - TOL).any():
        return MpsResult(False)
    T = _left_curtain(tau_spread, tau_contracted)
    if not _validate_mps_witness(T, tau_spread, tau_contracted):
        raise AssertionError("internal: MPS witness failed validation")
    return MpsResult(True, T)


# ---------------------------------------------------------------------------
# Blackwell ordering
# ---------------------------------------------------------------------------


class BlackwellOrder(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated"
    EQUIVALENT = "equivalent"
    UNRANKED = "unranked"


@dataclass(frozen=True)
class BlackwellResult:
    order: BlackwellOrder
    to_second: Optional[np.ndarray] = None  # G with G @ s1 = s2
    to_first: Optional[np.ndarray] = None  # G with G @ s2 = s1


def _garbling(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """A column-stochastic G with ``G @ a == b``, or None if there is none.

    Signal i of ``a`` has its posterior at atom alpha(i) of ``induced_tau(a,
    1/2)``, signal j of ``b`` at atom beta(j) of ``induced_tau(b, 1/2)``, and
    T is the curtain of the second into the first. Bayes' rule gives
    G[j, i] = T[alpha(i), beta(j)] P_b(j) / P_a(alpha(i)). A signal of ``a``
    with no mass sends all of it to signal 0.
    """
    spread, contracted = induced_tau(a, 0.5), induced_tau(b, 0.5)
    res = is_mps(spread, contracted)
    if not res:
        return None
    (pa, qa), (pb, qb) = _bayes(a[:, 0], a[:, 1], 0.5), _bayes(b[:, 0], b[:, 1], 0.5)
    alpha = np.abs(qa[:, None] - spread.beliefs).argmin(axis=1)
    beta = np.abs(qb[:, None] - contracted.beliefs).argmin(axis=1)
    G = res.witness[np.ix_(alpha, beta)].T * pb[:, None] / spread.probs[alpha]
    return np.where(pa > TOL, G, np.eye(b.shape[0], 1))


def blackwell_compare(s1, s2) -> BlackwellResult:
    """Blackwell-rank two two-state structures.

    ``DOMINATES`` means a column-stochastic G with ``G s1 = s2`` exists, and
    it is attached. With two states that holds exactly when the posteriors
    ``s1`` induces at the prior 1/2 are a mean-preserving spread of those of
    ``s2`` (Blackwell); G follows from the curtain witness of :func:`is_mps`
    by Bayes' rule. Both inputs go through :func:`validate_stochastic`, and
    each must have exactly two columns (``DimensionMismatch`` otherwise).
    """
    a, b = validate_stochastic(s1), validate_stochastic(s2)
    if a.shape[1] != 2 or b.shape[1] != 2:
        raise DimensionMismatch(
            f"Blackwell order needs two-state structures, got {a.shape[1]} and {b.shape[1]} columns"
        )
    return _blackwell(a, b)


def _blackwell(a: np.ndarray, b: np.ndarray) -> BlackwellResult:
    """:func:`blackwell_compare` of two checked two-state structures."""
    fwd, rev = _garbling(a, b), _garbling(b, a)
    if fwd is not None and rev is not None:
        order = BlackwellOrder.EQUIVALENT
    elif fwd is not None:
        order = BlackwellOrder.DOMINATES
    elif rev is not None:
        order = BlackwellOrder.DOMINATED_BY
    else:
        order = BlackwellOrder.UNRANKED
    return BlackwellResult(order, to_second=fwd, to_first=rev)


def garbling_rank(s) -> int:
    """Numerical rank; a 2x2 matrix is deficient iff its columns coincide."""
    a = _as_array(s)
    if a.shape == (2, 2):
        return 1 if abs(a[:, 0] - a[:, 1]).max() <= TOL else 2
    return int(np.linalg.matrix_rank(a, tol=TOL))
