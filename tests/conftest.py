"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from mpmath import mp

from qthermal.classify import nn_predictor
from qthermal.data import _MAX_SHIFT, _SPECKLE, _glyph_array, synthetic_digits
from qthermal.errors import DimensionMismatchError, GaussianStateError
from qthermal.gaussian import CovarianceMatrix, _as_matrix, _spectra
from qthermal.spaces import (
    NEG_INF,
    ImageSpace,
    log_distance_counts,
    log_factorials,
    log_hamming_sum,
    log_pair_counts,
    log_pow,
)

# Fixed examples and no per-example deadline: the suite gives the same
# result on every run and does not flake on slow or shared machines.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@lru_cache(maxsize=None)
def all_patterns(m: int) -> np.ndarray:
    """All 2^m binary patterns as an (2^m, m) uint8 array."""
    idx = np.arange(2**m, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(m)) & 1).astype(np.uint8)


@lru_cache(maxsize=None)
def hamming_matrix(m: int) -> np.ndarray:
    pats = all_patterns(m)
    return (pats[:, None, :] != pats[None, :, :]).sum(axis=2).astype(np.int64)


def brute_pair_sum(m: int, f: float, mask_a=None, mask_b=None, exclude_equal=True) -> float:
    """Sum of f^hamming over ordered pattern pairs from two index masks."""
    H = hamming_matrix(m)
    pats = all_patterns(m)
    pop = pats.sum(axis=1)
    sel_a = np.ones(len(pats), bool) if mask_a is None else mask_a(pop)
    sel_b = np.ones(len(pats), bool) if mask_b is None else mask_b(pop)
    sub = H[np.ix_(sel_a, sel_b)]
    weights = np.power(float(f), sub, dtype=float)
    if exclude_equal:
        weights = np.where(sub == 0, 0.0, weights)
    return float(weights.sum())


def pair_sum(m: int, ks, ls, f: float) -> float:
    """Sum of f^hamming over ordered unequal pattern pairs (x, y) with |x| in
    ``ks`` and |y| in ``ls``, through the library's one primitive for
    image-space sums, ``log_hamming_sum``: over the space's cached spectrum
    when the count sets are equal, else over ``log_pair_counts``.  A sum
    beyond double range is ``inf``."""
    ks, ls = sorted(ks), sorted(ls)
    counts = log_distance_counts(ImageSpace.bcpf(m, ks)) if ks == ls else log_pair_counts(m, ks, ls)
    with np.errstate(over="ignore"):
        return float(np.exp(log_hamming_sum(counts, log_pow(f))))


def brute_uniform(m: int, f: float) -> float:
    return brute_pair_sum(m, f) / 2**m


def brute_cpf(m: int, k: int, f: float) -> float:
    from math import comb

    mask = lambda pop: pop == k
    return brute_pair_sum(m, f, mask, mask) / comb(m, k)


def brute_cross(m: int, k: int, l: int, f: float) -> float:
    return brute_pair_sum(
        m, f, lambda pop: pop == k, lambda pop: pop == l, exclude_equal=False
    )


def brute_bcpf(m: int, ks, f: float) -> float:
    ks = set(ks)
    mask = lambda pop: np.isin(pop, list(ks))
    return brute_pair_sum(m, f, mask, mask)


@st.composite
def image_spaces(draw, max_m: int = 10) -> ImageSpace:
    """Image space of m <= max_m pixels with any non-empty set of target
    counts: k-CPF for one count, uniform for all of 0..m, k-BCPF otherwise."""
    m = draw(st.integers(1, max_m))
    return ImageSpace.bcpf(m, draw(st.sets(st.integers(0, m), min_size=1)))


def brute_distance_counts(m: int, ks, ls) -> np.ndarray:
    """Ordered pairs (x, y), x != y, |x| in ks, |y| in ls, per distance 1..m."""
    pop = all_patterns(m).sum(axis=1)
    sub = hamming_matrix(m)[np.ix_(np.isin(pop, list(ks)), np.isin(pop, list(ls)))]
    return np.bincount(sub.ravel(), minlength=m + 1)[1:]


def oracle_log_pair_counts(m: int, ks, ls) -> np.ndarray:
    """log N_d, d = 1..m, summed term by term: for each count k, each pair
    with |y| = l in ``ls`` flips a ones of x and b = a + l - k zeros, so it
    adds the multinomial C(m, k) C(k, a) C(m - k, b) at distance a + b.  One
    log-domain group sum per k, O(|ks| |ls| max(ks)) work; the library's
    ``log_pair_counts`` regroups the same terms by (k - l, k + l)."""
    lf = log_factorials(m)
    ls = np.asarray(ls)
    out = np.full(m + 1, NEG_INF)
    for k in ks:
        a = np.arange(k + 1)
        b = a + (ls - k)[:, None]
        ok = (b >= 0) & (b <= m - k) & (a + b > 0)
        a, b = np.broadcast_to(a, b.shape)[ok], b[ok]
        terms = lf[m] - lf[a] - lf[k - a] - lf[b] - lf[m - k - b]
        top = np.full(m + 1, NEG_INF)
        np.maximum.at(top, a + b, terms)
        sums = np.bincount(a + b, weights=np.exp(terms - top[a + b]), minlength=m + 1)
        with np.errstate(divide="ignore"):
            out = np.logaddexp(out, top + np.log(sums))
    return out[1:]


def space_patterns(space: ImageSpace) -> np.ndarray:
    """Every pattern of ``space``, in the bit order of ``all_patterns``."""
    pats = all_patterns(space.m)
    return pats[np.isin(pats.sum(axis=1), space.ks)]


def exact_nn_error(patterns, p: float) -> float:
    """Exact nearest-neighbour error when each of the (n, m) ``patterns`` is
    its own class, drawn uniformly, and every pixel flips with probability p.

    Sums over all 2^m flip patterns e with weight p^|e| (1 - p)^(m - |e|);
    the decision is the lowest-index nearest pattern, as ``nn_predictor``
    takes it.  Over a whole space this is maximum-likelihood decoding on a
    binary symmetric channel, so ties do not change the error.
    """
    patterns = np.asarray(patterns, dtype=np.int64)
    n, m = patterns.shape
    codes = patterns @ (1 << np.arange(m))
    words = np.arange(2**m)
    pop = all_patterns(m).sum(axis=1)  # pop[w] = |w|
    decode = np.argmin(pop[words[:, None] ^ codes[None, :]], axis=1)
    wrong = decode[codes[:, None] ^ words[None, :]] != np.arange(n)[:, None]
    weights = float(p) ** pop * (1.0 - float(p)) ** (m - pop)
    return float((wrong * weights).sum() / n)


def bayes_error(images, templates, labels, weights, q: float) -> np.ndarray:
    """Exact Bayes posterior error 1 - max_c P(c | y) of each binary image y
    of ``images`` (n, m), when an image is template s of ``templates`` (S, m),
    of class ``labels[s]``, with probability ``weights[s]``, and each pixel
    then flips with probability q in (0, 1).

    P(y | s) = q^d (1 - q)^(m - d), d the Hamming distance from y to template
    s, all from one template-distance product.  The factor (1 - q)^m is the
    same for every s, so the class sums are taken in log space as
    log sum_{s in c} w_s (q / (1 - q))^d, which at q = 1/2 ties every class
    with equal weight exactly.  The error is the other classes' posterior
    mass, summed without cancellation.
    """
    y = np.asarray(images, dtype=np.float64)
    t = np.asarray(templates, dtype=np.float64)
    labels = np.asarray(labels)
    d = y.sum(axis=1)[:, None] + t.sum(axis=1)[None, :] - 2.0 * (y @ t.T)
    log_joint = np.log(weights)[None, :] + d * math.log(q / (1.0 - q))
    classes = np.unique(labels)
    log_class = np.empty((len(y), len(classes)))
    for k, c in enumerate(classes):
        part = log_joint[:, labels == c]
        top = part.max(axis=1)
        log_class[:, k] = top + np.log(np.exp(part - top[:, None]).sum(axis=1))
    rel = np.exp(log_class - log_class.max(axis=1, keepdims=True))
    rel[np.arange(len(y)), rel.argmax(axis=1)] = 0.0
    rest = rel.sum(axis=1)
    return rest / (1.0 + rest)


def block_digit_templates(height: int = 28, width: int = 28):
    """Every placement ``synthetic_digits`` draws: each class's glyph at each
    of its (2 * _MAX_SHIFT + 1)^2 equally likely shifts, clipped to the canvas
    as there, as (S, m) templates and their labels; each has weight 1 / S."""
    scale = max(1, min((height - 2) // 7, (width - 2) // 5))
    shifts = range(-_MAX_SHIFT, _MAX_SHIFT + 1)
    templates, labels = [], []
    for cls in range(10):
        glyph = _glyph_array(cls, scale)
        gh, gw = glyph.shape
        for dr, dc in itertools.product(shifts, shifts):
            r = min(max((height - gh) // 2 + dr, 0), height - gh)
            c = min(max((width - gw) // 2 + dc, 0), width - gw)
            canvas = np.zeros((height, width), dtype=np.uint8)
            canvas[r : r + gh, c : c + gw] = glyph
            templates.append(canvas.ravel())
            labels.append(cls)
    return np.array(templates), np.array(labels)


def block_digit_floor(images, p: float, draws: int, seed: int) -> tuple[float, float]:
    """Monte Carlo Bayes-optimal error, and its standard error, of block
    digits under flip probability p: the mean posterior error of ``images``,
    synthetic digits with their speckle, each flipped ``draws`` times by
    uniforms of the test's own.  A pixel then differs from its template with
    probability q = s + p - 2 s p, s the speckle probability."""
    templates, labels = block_digit_templates()
    q = _SPECKLE + p - 2 * _SPECKLE * p
    rng = np.random.default_rng(seed)
    noisy = np.concatenate([images ^ (rng.random(images.shape) < p) for _ in range(draws)])
    errors = bayes_error(noisy, templates, labels, np.full(len(templates), 1 / len(templates)), q)
    # correctly rounded sums, so that a constant floor has exactly its value and SE 0
    mean = math.fsum(errors) / len(errors)
    return mean, math.sqrt(math.fsum((errors - mean) ** 2) / (len(errors) - 1) / len(errors))


def floor_slack(estimate, floor: float, floor_se: float) -> float:
    """4 SE of the gap between an ``ErrorEstimate`` and a Bayes floor: the
    estimate's SE, the floor's, and the binomial SE of an optimal classifier
    over the same samples, so that a count of 0 passes a tiny positive floor."""
    n = estimate.trials * estimate.evaluations
    return 4 * math.sqrt(estimate.stderr**2 + floor_se**2 + floor * (1 - floor) / n)


def head(dataset, n: int):
    """A dataset of the first ``n`` images of ``dataset``."""
    return replace(dataset, images=dataset.images[:n], labels=dataset.labels[:n])


def nn_factory(training):
    """An ``advantage_regions`` factory giving every endpoint one
    nearest-neighbour predictor over ``training``, as ``simulate
    --classifier nn`` does."""
    nn = nn_predictor(training)
    return lambda noise: nn


# Gaussian test states, in the library's conventions: shot noise 1/2,
# quadratures ordered (q1, p1, ..., qN, pN)

Z2 = np.diag([1.0, -1.0])


def vacuum_cm(modes: int = 1) -> CovarianceMatrix:
    return CovarianceMatrix(0.5 * np.eye(2 * modes))


def thermal_cm(nbar: float) -> CovarianceMatrix:
    """Single-mode thermal state with mean photon number ``nbar``."""
    return CovarianceMatrix((nbar + 0.5) * np.eye(2))


def tmsv_cm(a: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with diagonal blocks a*I, a = n_s + 1/2."""
    c = np.sqrt(a * a - 0.25)
    return CovarianceMatrix(np.block([[a * np.eye(2), c * Z2], [c * Z2, a * np.eye(2)]]))


def symplectic_eigenvalues(V) -> np.ndarray:
    """Symplectic spectrum, descending, of a covariance matrix (an array or a
    ``CovarianceMatrix``), as ``CovarianceMatrix`` computes it to judge
    physicality."""
    return _spectra(_as_matrix(V))[1]


def random_symplectic(modes: int, rng: np.random.Generator) -> np.ndarray:
    """Random symplectic from mode rotations, pair mixers and squeezers."""
    n = 2 * modes
    S = np.eye(n)
    for _ in range(3):
        for mode in range(modes):
            th = rng.uniform(0, 2 * np.pi)
            R = np.eye(n)
            c, s = np.cos(th), np.sin(th)
            R[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = [[c, s], [-s, c]]
            S = R @ S
            r = rng.uniform(-0.8, 0.8)
            Q = np.eye(n)
            Q[2 * mode, 2 * mode] = np.exp(r)
            Q[2 * mode + 1, 2 * mode + 1] = np.exp(-r)
            S = Q @ S
        for a in range(modes):
            for b in range(a + 1, modes):
                th = rng.uniform(0, 2 * np.pi)
                M = np.eye(n)
                c, s = np.cos(th), np.sin(th)
                for off in (0, 1):
                    i, j = 2 * a + off, 2 * b + off
                    M[i, i] = c
                    M[i, j] = s
                    M[j, i] = -s
                    M[j, j] = c
                S = M @ S
    return S


def random_cm(modes: int, rng: np.random.Generator, nus=None) -> np.ndarray:
    """Random bona fide covariance matrix via Williamson synthesis, with the
    symplectic eigenvalues ``nus`` or, by default, uniform ones in [1/2, 4]."""
    S = random_symplectic(modes, rng)
    if nus is None:
        nus = rng.uniform(0.5, 4.0, modes)
    D = np.diag(np.repeat(nus, 2))
    return S @ D @ S.T


def eig_fidelity_oracle(V1, V2, dps: int = 50) -> float:
    """Gaussian fidelity product form in ``dps`` digits, with the auxiliary
    spectrum from a general eigensolve of X = Omega^T (V1+V2)^-1
    (Omega/4 + V2 Omega V1) Omega, whose eigenvalues come in +-i v pairs.

    Independent of the library's extended-precision routine, which reads the
    spectrum of one- and two-mode states from matrix invariants instead.
    """
    with mp.workdps(dps):
        A1, A2 = mp.matrix(V1), mp.matrix(V2)
        O = mp.matrix(np.kron(np.eye(A1.rows // 2), [[0.0, 1.0], [-1.0, 0.0]]).tolist())
        S = A1 + A2
        X = O.T * (S**-1) * (O / 4 + A2 * O * A1) * O
        mods = sorted(abs(x) for x in mp.eig(X)[0])
        prod = mp.mpf(1)
        for v in mods[::2]:
            prod *= 2 * v + mp.sqrt(max(4 * v * v - 1, 0))
        return float(mp.sqrt(prod) / mp.det(S) ** mp.mpf(0.25))


def choi_reference_fidelity(pair, a, dps: int = 100) -> float:
    """Finite-energy Choi fidelity of an ``EnvironmentPair`` in ``dps`` digits.

    The Choi covariance matrices are built here from (tau, nu, a) in ``dps``
    digits, with idler variance a, output variance tau a + nu and q/p
    correlations +-sqrt(tau (a^2 - 1/4)), and fed to
    :func:`eig_fidelity_oracle`; no library fidelity or Choi constructor runs.
    """
    with mp.workdps(dps):
        am, tau = mp.mpf(a), mp.mpf(pair.tau)
        c = mp.sqrt(tau * (am * am - mp.mpf(1) / 4))
        mats = []
        for nu in (pair.target.nu, pair.background.nu):
            out = am * tau + mp.mpf(nu)
            mats.append(mp.matrix([[am, 0, c, 0], [0, am, 0, -c], [c, 0, out, 0], [0, -c, 0, out]]))
    return eig_fidelity_oracle(*mats, dps=dps)


# The paper's printed single-pixel closed forms, kept here as references
# independent of the library's one closed form in (tau, nu_t, nu_b, a).


def printed_choi_additive(nu_t: float, nu_b: float) -> float:
    """Infinite-squeezing Choi fidelity of an additive pair,
    2 sqrt(nu_t nu_b)/(nu_t + nu_b)."""
    return 2.0 * np.sqrt(nu_t * nu_b) / (nu_t + nu_b)


def printed_choi_thermal(eps_t: float, eps_b: float) -> float:
    """Infinite-squeezing Choi fidelity of a loss/amplifier pair in the
    thermal parameters eps = nbar + 1/2, independent of the transmissivity:
    sqrt((4 e_t e_b + 1 + sqrt((4 e_t^2 - 1)(4 e_b^2 - 1))) / 2) / (e_t + e_b)."""
    cross = np.sqrt((4.0 * eps_t**2 - 1.0) * (4.0 * eps_b**2 - 1.0))
    return np.sqrt(2.0 * eps_t * eps_b + 0.5 + 0.5 * cross) / (eps_t + eps_b)


def printed_classical_additive(nu_t: float, nu_b: float) -> float:
    """Vacuum-probe fidelity of an additive pair,
    1/(sqrt((nu_t + 1)(nu_b + 1)) - sqrt(nu_t nu_b))."""
    return 1.0 / (np.sqrt((nu_t + 1.0) * (nu_b + 1.0)) - np.sqrt(nu_t * nu_b))


def min_rel_probe_additive(nu_t: float, nu_b: float) -> float:
    """Closed form of ``bounds.min_rel_probe_uniform`` for an additive-noise
    pair, via the quantum and classical excess-noise gaps

        d_q  = (sqrt(nu_b) - sqrt(nu_t))^2 / (2 sqrt(nu_b nu_t)),
        d_cl = sqrt((nu_t+1)(nu_b+1)) - sqrt(nu_b nu_t) - 1,

    giving log 2 / (log(1 + d_q) - 2 log(1 + d_cl))."""
    if nu_t < 0 or nu_b < 0:
        raise ValueError("additive noise parameters must be non-negative")
    if nu_t == nu_b:
        return math.inf
    d_q = (math.sqrt(nu_b) - math.sqrt(nu_t)) ** 2 / (2.0 * math.sqrt(nu_b * nu_t))
    d_cl = math.sqrt((nu_t + 1.0) * (nu_b + 1.0)) - math.sqrt(nu_b * nu_t) - 1.0
    denom = math.log1p(d_q) - 2.0 * math.log1p(d_cl)
    if denom <= 0.0:
        return math.inf
    return math.log(2.0) / denom


class UnsupportedStateError(GaussianStateError):
    """State is outside the Fock oracle's diagonal-thermal scope."""


class CutoffTooSmallError(GaussianStateError):
    """Fock truncation discards too much trace weight."""


def _thermal_occupations(arr: np.ndarray) -> np.ndarray:
    """Per-mode occupations of a diagonal product-of-thermals CM."""
    off = arr - np.diag(np.diag(arr))
    scale = max(1.0, np.max(np.abs(arr)))
    if np.max(np.abs(off)) > 1e-10 * scale:
        raise UnsupportedStateError("oracle requires a diagonal covariance matrix")
    d = np.diag(arr)
    q, p = d[0::2], d[1::2]
    if np.max(np.abs(q - p)) > 1e-10 * scale:
        raise UnsupportedStateError("oracle requires equal q and p variances per mode")
    return q - 0.5


def _log_bose_einstein(nbar: float, ns: np.ndarray) -> np.ndarray:
    nbar = max(float(nbar), 0.0)
    if nbar == 0.0:
        out = np.full(ns.shape, -np.inf)
        out[0] = 0.0
        return out
    return ns * (np.log(nbar) - np.log1p(nbar)) - np.log1p(nbar)


def fock_fidelity_oracle(V1, V2, cutoff: int) -> float:
    """Uhlmann fidelity of truncated Fock representations.

    Deliberately narrow verification oracle: only single-mode thermal states
    and tensor products thereof are accepted (diagonal Fock representation),
    where the fidelity is the Bhattacharyya sum of Bose-Einstein weights,
    evaluated per mode up to ``cutoff``.  Converges monotonically upward in
    the cutoff.

    Raises:
        UnsupportedStateError: non-diagonal Fock representation requested.
        CutoffTooSmallError: truncated trace below 1 - 1e-6 for either state.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    A1, A2 = (V if isinstance(V, CovarianceMatrix) else CovarianceMatrix(V) for V in (V1, V2))
    A1, A2 = A1.matrix, A2.matrix
    if A1.shape != A2.shape:
        raise DimensionMismatchError(f"mode mismatch: {A1.shape} vs {A2.shape}")
    occ1 = _thermal_occupations(A1)
    occ2 = _thermal_occupations(A2)
    ns = np.arange(cutoff + 1, dtype=float)
    F = 1.0
    for n1, n2 in zip(occ1, occ2):
        logp = _log_bose_einstein(n1, ns)
        logq = _log_bose_einstein(n2, ns)
        for lg, nb in ((logp, n1), (logq, n2)):
            trace = np.sum(np.exp(lg))
            if trace < 1.0 - 1e-6:
                raise CutoffTooSmallError(
                    f"truncated trace {trace:.9f} at cutoff {cutoff} (nbar={nb:.4g})"
                )
        F *= float(np.sum(np.exp(0.5 * (logp + logq))))
    return F


@pytest.fixture(scope="session")
def digits_small():
    train = synthetic_digits(200, seed=11, split="training")
    evaluation = synthetic_digits(100, seed=12, split="evaluation")
    return train, evaluation


def direct_preactivations(net, params, images) -> list[np.ndarray]:
    """Every layer's pre-activation, (B, F, OH, OW) for conv and (B, F) for
    dense, by direct convolution, independent of the library's im2col.

    Activations are (B, C, H, W); each output position is an explicit loop
    iteration over its k x k window.  Hidden layers end in a ReLU, and the
    dense layers read the last conv output flattened in (C, H, W) order,
    the order of the first dense layer's weight columns.  The last entry is
    the logits.
    """
    x = np.asarray(images, dtype=float)[:, None]
    zs = []
    for (W, b), (filters, kernel, stride) in zip(params, net.conv):
        B, _, h, w = x.shape
        oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
        z = np.empty((B, filters, oh, ow))
        for r in range(oh):
            for c in range(ow):
                window = x[:, :, r * stride : r * stride + kernel, c * stride : c * stride + kernel]
                z[:, :, r, c] = np.einsum("bcij,fcij->bf", window, W) + b
        zs.append(z)
        x = np.maximum(z, 0.0)
    a = x.reshape(len(x), -1)
    for W, b in params[len(net.conv) :]:
        zs.append(a @ W.T + b)
        a = np.maximum(zs[-1], 0.0)
    return zs


def relu_margin(net, params, images) -> float:
    """Smallest |pre-activation| over all hidden units of the batch."""
    margins = [np.min(np.abs(z)) for z in direct_preactivations(net, params, images)[:-1]]
    return float(min(margins)) if margins else float("inf")


def smooth_configuration(net, seed, batch=4):
    """Random parameters and inputs with all ReLU inputs away from zero.

    Central differences at the contract step 1e-3 are only meaningful when
    the perturbation cannot cross an activation kink.
    """
    from qthermal.cnn import init_params

    for attempt in range(50):
        rng = np.random.default_rng(seed + 1000 * attempt)
        params = init_params(net, seed + 1000 * attempt)
        images = rng.random((batch, *net.input_shape))
        labels = rng.integers(0, net.classes, batch)
        if relu_margin(net, params, images) > 0.02:
            return params, images, labels
    raise RuntimeError("no kink-free configuration found")


def _flatten(params) -> np.ndarray:
    return np.concatenate([arr.ravel() for W, b in params for arr in (W, b)])


def _unflatten(net, flat: np.ndarray):
    params, pos = [], 0
    for w_shape, b_shape in net.parameter_shapes():
        wn, bn = int(np.prod(w_shape)), int(np.prod(b_shape))
        W = flat[pos : pos + wn].reshape(w_shape)
        pos += wn
        b = flat[pos : pos + bn].reshape(b_shape)
        pos += bn
        params.append((W, b))
    return params


def max_fd_error(net, params, images, labels, coords=100, eps=1e-3, seed=0):
    """Worst relative deviation of backprop from central differences."""
    from qthermal.cnn import loss_and_grad

    _, grads = loss_and_grad(net, params, images, labels)
    flat_g = _flatten(grads)
    flat_p = _flatten(params)
    idxs = np.random.default_rng(seed).choice(
        flat_p.size, size=min(coords, flat_p.size), replace=False
    )
    worst = 0.0
    for i in idxs:
        hi = flat_p.copy()
        hi[i] += eps
        lo = flat_p.copy()
        lo[i] -= eps
        vh, _ = loss_and_grad(net, _unflatten(net, hi), images, labels)
        vl, _ = loss_and_grad(net, _unflatten(net, lo), images, labels)
        fd = (vh - vl) / (2 * eps)
        worst = max(worst, abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-8))
    return worst
