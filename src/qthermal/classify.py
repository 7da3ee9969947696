"""Pixel-noise sampling, nearest-neighbour classification, Monte Carlo error
estimation, and ``TrainConfig``, the settings of every CNN training.

Sensor imperfection is modelled as independent symmetric pixel flips whose
probability comes from the single-pixel error bounds.  Each trial flips a
copy of the whole evaluation set in place with ``data.flip_rows``, which
draws its uniforms a few rows at a time from a counter-based stream keyed on
(master seed, M index, trial), shared by the four noise endpoints of one M;
streams come from ``data.trial_stream``, which this module re-exports.
The nearest-neighbour rule scores a batch with one float64 GEMM
against the training set packed several images per column, in integers below
2**53, so its labels are exact; it holds no training image.  The GEMM output
is unpacked and scored in row blocks of ``_NN_ROWS`` queries, in buffers
reused from block to block, with one argmin per query over scores laid out
in training-index order, so ties go to the lowest-index nearest image.  ``estimate_error`` runs its
trials in order; ``advantage_regions`` is the one place that runs work
concurrently, its (M, flip probability) jobs, classifier training included,
on ``threads`` workers.  Every job depends only on its own streams, so any
thread count reproduces the same numbers bit for bit.  Its thread pool,
``concurrent.futures`` with the ``logging`` and ``queue`` modules under it,
is imported on first use, on the calling thread before any worker starts,
so the analytic commands never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import check_copies, pixel_error_bounds
from .channels import EnvironmentPair, fidelity_choi_inf, fidelity_classical
from .data import BinaryImageDataset, flip_rows, trial_stream
from .errors import (
    EmptyEvaluationSetError,
    EmptyTrainingSetError,
    InsufficientSamplesError,
    ShapeMismatchError,
    SingularDesignError,
)

NOISE_DERIVATIONS = (
    "classical-lower",
    "classical-upper",
    "quantum-lower",
    "quantum-upper",
)

# truncation order of the finite-sample error expansion fitted by ``snapp_fit``
_SNAPP_JMAX = 5

# queries per row block when ``nn_predictor`` scores a batch's GEMM output
_NN_ROWS = 32


@dataclass(frozen=True)
class NoiseModel:
    """Symmetric pixel-flip channel: one flip probability in [0, 1/2]."""

    flip_probability: float

    def __post_init__(self):
        p = self.flip_probability
        if not 0.0 <= p <= 0.5:
            raise ValueError(f"flip probability must lie in [0, 1/2], got {p}")


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; the package's only CNN training defaults."""

    learning_rate: float = 0.05
    batch_size: int = 64
    epochs: int = 3
    seed: int = 0
    holdout_fraction: float = 0.1

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.holdout_fraction < 1.0:  # NaN fails too
            raise ValueError(f"holdout fraction must lie in [0, 1), got {self.holdout_fraction}")


def endpoint_noise_models(F_q: float, F_cl: float, copies: int) -> dict[str, NoiseModel]:
    """The four noise models spanned by the quantum (Choi fidelity ``F_q``)
    and classical (vacuum-probe fidelity ``F_cl``) error bounds at ``copies``
    probe copies, keyed and ordered as ``NOISE_DERIVATIONS``: the key is the
    one record of which endpoint a flip probability came from."""
    cl, q = pixel_error_bounds(F_cl, copies), pixel_error_bounds(F_q, copies)
    return {tag: NoiseModel(p) for tag, p in zip(NOISE_DERIVATIONS, (*cl, *q))}


def sample_noisy(images: np.ndarray, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """A copy of ``images`` (one image, or a batch with images along the
    first axis) with each pixel flipped independently with the model's
    probability: pixel flips when its uniform U < p, so one stream's flips
    nest as p grows.  The copy is flipped in place by ``data.flip_rows``,
    whose uniforms come row-major from ``rng`` as from one
    ``rng.random(images.shape)`` draw."""
    noisy = np.array(images, dtype=np.uint8)
    # explicit sizes, since reshape cannot infer a -1 beside a 0; one image
    # becomes a column of one-pixel rows, which draws the same uniforms
    flip_rows(noisy.reshape(len(noisy), math.prod(noisy.shape[1:])), noise.flip_probability, rng)
    return noisy


def nn_predictor(training: BinaryImageDataset | None) -> Callable[[np.ndarray], np.ndarray]:
    """Batch nearest-neighbour label predictor over ``training``.

    hamming(q, t) = |q| + |t| - 2 q.t for binary vectors; |q| is the same for
    every training image, so the label comes from argmin(|t| - 2 q.t).

    For a binary query q.t <= |t| < 2**bits, with bits the bit length of the
    largest training norm, so ``digits = 53 // bits`` dot products fit side by
    side in one float64 mantissa.  On build the training set is packed once
    into ``cols = ceil(n / digits)`` float64 columns, column c holding
    sum_k 2**(bits k) t[k cols + c]; one GEMM of the batch against them gives
    every q.t.  Each product and partial sum is a non-negative integer below
    2**53, hence exact in any summation order, BLAS kernel or thread count.
    Digit k of the product, read with a shift and a mask, is q.t for block k,
    the training images k cols ... (k + 1) cols - 1.  The predictor keeps the
    packed columns, the norms and the labels, and no reference to the images.

    The product is scored ``_NN_ROWS`` queries at a time: each row block's
    digits are extracted in place, the lowest first, into one (rows, blocks,
    cols) score array, so that position k cols + c is training index
    k cols + c, and one argmin per row returns the lowest-index nearest
    training image.  Each masked digit 2 q.t lies below 2**(bits + 1) and
    each score within +-2**bits, so both are held in the narrowest signed
    integer type that holds +-2**(bits + 1).  Padding slots of the last
    block score above every real image.  A batch that is not (B, pixels)
    raises ``ShapeMismatchError``.  A pixel other than 0 or 1 could carry
    into the next digit, so such a batch raises ``ValueError``.  Both checks
    run on the batch as given, before any cast.
    """
    if training is None or len(training) == 0:
        raise EmptyTrainingSetError("training set is empty")
    images = training.images
    n, pixels = images.shape
    t_norms = images.sum(axis=1, dtype=np.int64)
    bits = max(int(t_norms.max()).bit_length(), 1)
    digits = 53 // bits
    cols = -(-n // digits)
    blocks = -(-n // cols)
    packed = np.zeros((cols, pixels))
    for k in reversed(range(blocks)):
        # Horner: packed = packed * 2**bits + block k
        packed *= float(1 << bits)
        block = images[k * cols : (k + 1) * cols]
        packed[: len(block)] += block
    score_dtype = np.min_scalar_type(-(1 << (bits + 1)))
    block_norms = np.full(blocks * cols, t_norms.max() + 1, dtype=score_dtype)
    block_norms[:n] = t_norms
    block_norms = block_norms.reshape(blocks, cols)
    twice_mask = 2 * ((1 << bits) - 1)
    t_labels = training.labels

    def predict(batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != pixels:
            raise ShapeMismatchError(
                f"nearest-neighbour batch must be (B, {pixels}), got {batch.shape}"
            )
        if np.any((batch != 0) & (batch != 1)):
            raise ValueError("nearest-neighbour queries must be binary (pixels 0 or 1)")
        products = np.asarray(batch, dtype=np.float64) @ packed.T
        nearest = np.empty(len(batch), dtype=np.int64)
        # one set of row-block buffers, reused by every block
        twice = np.empty((min(_NN_ROWS, len(batch)), cols), dtype=np.int64)
        scores = np.empty((len(twice), blocks, cols), dtype=score_dtype)
        for start in range(0, len(batch), _NN_ROWS):
            rows = min(_NN_ROWS, len(batch) - start)
            t, s = twice[:rows], scores[:rows]
            # 2 q.t of block k is bits k up in t: mask the lowest digit into
            # its score slot, then shift the next one down
            np.multiply(products[start : start + rows], 2.0, out=t, casting="unsafe")
            for k in range(blocks):
                np.bitwise_and(t, twice_mask, out=s[:, k], casting="unsafe")
                np.subtract(block_norms[k], s[:, k], out=s[:, k])
                t >>= bits
            nearest[start : start + rows] = np.argmin(s.reshape(rows, -1), axis=1)
        return t_labels[nearest]

    return predict


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte Carlo misclassification estimate."""

    mean: float
    stderr: float
    trials: int
    evaluations: int


def _check_estimate(n_eval: int, trials: int) -> None:
    """Raise the usage error of an estimate of ``n_eval`` images that could run no sample."""
    if n_eval < 1:
        raise EmptyEvaluationSetError("evaluation set is empty")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def estimate_error(
    training: BinaryImageDataset | None,
    evaluation: BinaryImageDataset,
    noise: NoiseModel,
    trials: int,
    master_seed: int,
    predictor: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ErrorEstimate:
    """Expected misclassification probability over noisy evaluation samples.

    Trial t flips the whole evaluation set with one block of uniforms from
    the (``master_seed``, t) stream and classifies it with ``predictor``, or
    by nearest neighbour against ``training`` when none is given.  Trials run
    in order on the calling thread.

    Returns:
        ``ErrorEstimate`` with mean error and standard error
        sample-stddev / sqrt(trials * |evaluation|).
    """
    _check_estimate(len(evaluation), trials)
    if predictor is None:
        predictor = nn_predictor(training)

    # one function call per trial, so that no trial's noisy images are
    # still held while the next trial draws its own
    def run_trial(trial: int) -> int:
        noisy = sample_noisy(evaluation.images, noise, trial_stream(master_seed, trial))
        return int(np.count_nonzero(predictor(noisy) != evaluation.labels))

    wrong = sum(map(run_trial, range(trials)))
    n = trials * len(evaluation)
    mean = wrong / n
    # sample standard deviation of 0/1 indicators
    var = (wrong * (1.0 - mean) ** 2 + (n - wrong) * mean**2) / (n - 1) if n > 1 else 0.0
    return ErrorEstimate(mean=mean, stderr=float(np.sqrt(var / n)), trials=trials, evaluations=len(evaluation))


@dataclass(frozen=True)
class SnappFit:
    """Finite-sample interpolation of classifier error against training size,
    E(T) ~ e_inf + sum_{j=2.._SNAPP_JMAX} x_j T^(-j/m)."""

    e_inf: float
    coefficients: np.ndarray
    residual_rms: float
    clipped: bool


def _snapp_design(T: np.ndarray, m: int) -> np.ndarray:
    cols = [np.ones_like(T)] + [T ** (-j / m) for j in range(2, _SNAPP_JMAX + 1)]
    return np.column_stack(cols)


def snapp_fit(samples: Sequence[tuple[float, float]], m: int) -> SnappFit:
    """Least-squares fit of the truncated finite-sample error expansion.

    Args:
        samples: (T, E) pairs; at least ``_SNAPP_JMAX`` distinct training sizes.
        m: pixel count entering the T^(-j/m) basis.

    The fit is ``np.linalg.lstsq`` on unit-scaled columns; the asymptotic
    error estimate is clipped at zero (flagged via ``clipped``) since error
    probabilities cannot be negative.
    """
    if m < 1:
        raise ValueError(f"pixel count must be >= 1, got {m}")
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("samples must be (T, E) pairs")
    T, E = pts[:, 0], pts[:, 1]
    if np.any(T < 1):
        raise ValueError("training sizes must be >= 1")
    if len(np.unique(T)) < _SNAPP_JMAX:
        raise InsufficientSamplesError(
            f"need at least {_SNAPP_JMAX} distinct training sizes, got {len(np.unique(T))}"
        )
    A = _snapp_design(T, m)
    coeff = _least_squares(A, E)
    clipped = coeff[0] < 0.0
    if clipped:
        # refit with the asymptote pinned at zero so the returned model
        # (e_inf, coefficients) still describes one consistent fit
        tail = _least_squares(A[:, 1:], E)
        coeff = np.concatenate([[0.0], tail])
    resid = E - A @ coeff
    return SnappFit(
        e_inf=float(coeff[0]),
        coefficients=coeff[1:].copy(),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        clipped=clipped,
    )


def _least_squares(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq`` on unit-scaled columns; the basis is near-collinear
    for large m."""
    scale = np.linalg.norm(A, axis=0)
    if np.any(scale == 0.0):
        raise SingularDesignError("design matrix has a zero column")
    x, _, rank, _ = np.linalg.lstsq(A / scale, y, rcond=None)
    if rank < A.shape[1]:
        raise SingularDesignError(f"design matrix has rank {rank} < {A.shape[1]} columns")
    return x / scale


@dataclass(frozen=True)
class AdvantageRow:
    """One probe-copy grid point of a quantum-vs-classical simulation: the
    endpoint noise models and their error estimates, each a dict keyed and
    ordered as ``NOISE_DERIVATIONS``."""

    M: int
    models: dict[str, NoiseModel]
    errors: dict[str, ErrorEstimate]

    @property
    def de_min(self) -> float:
        return self.errors["classical-lower"].mean - self.errors["quantum-upper"].mean

    @property
    def de_max(self) -> float:
        return self.errors["classical-lower"].mean - self.errors["quantum-lower"].mean

    @property
    def stderr_max(self) -> float:
        return max(e.stderr for e in self.errors.values())


def check_regions(
    M_grid: Sequence[int], threads: int, trials: int, n_eval: int, p_override: float | None = None
) -> None:
    """Raise the usage errors of ``advantage_regions`` that need no dataset,
    only the size ``n_eval`` of the evaluation set."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    check_copies(M_grid)
    if p_override is not None:
        NoiseModel(p_override)
    _check_estimate(n_eval, trials)


def advantage_regions(
    predictor_factory: Callable[[NoiseModel], Callable[[np.ndarray], np.ndarray]],
    evaluation: BinaryImageDataset,
    pair: EnvironmentPair,
    M_grid: Sequence[int],
    trials: int,
    master_seed: int,
    threads: int = 1,
    p_override: float | None = None,
) -> list[AdvantageRow]:
    """Classifier error regions across the four pixel-noise endpoints.

    For each M the pixel error bounds of the quantum and classical strategies
    define four flip probabilities; the classification error is estimated at
    each, and the guaranteed/potential error advantages are their
    differences, taken with common random numbers: the four estimates of one
    M share the seed drawn from the (``master_seed``, M index) stream.
    ``predictor_factory(noise)`` supplies the classifier of each endpoint,
    trained for it or shared by all.  ``p_override`` forces one flip
    probability everywhere, for diagnostics.  Each row holds its M's models
    and estimates keyed by endpoint tag.

    Each distinct (M index, flip probability) is one job: build its predictor
    with the factory, then run all its trials.  Endpoints of one M with the
    same flip probability, as all four are under ``p_override``, share one
    job and its estimate; the factory sees the first of their models.
    ``threads`` workers run the jobs of the whole grid concurrently; the rows
    are bit-identical for any thread count.  The errors of ``check_regions``,
    an empty evaluation set or fewer than one trial among them, raise before
    the factory is first called.
    """
    check_regions(M_grid, threads, trials, len(evaluation), p_override)
    grid = []
    jobs: dict[tuple[int, float], tuple[NoiseModel, int]] = {}
    fidelities = None if p_override is not None else (fidelity_choi_inf(pair), fidelity_classical(pair))
    for mi, M in enumerate(M_grid):
        if p_override is None:
            models = endpoint_noise_models(*fidelities, M)
        else:
            models = dict.fromkeys(NOISE_DERIVATIONS, NoiseModel(p_override))
        grid.append((int(M), models))
        seed = trial_stream(master_seed, mi).integers(2**63)
        for model in models.values():
            jobs.setdefault((mi, model.flip_probability), (model, seed))

    def run_job(job: tuple[NoiseModel, int]) -> ErrorEstimate:
        model, seed = job
        return estimate_error(None, evaluation, model, trials, seed, predictor=predictor_factory(model))

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        estimates = dict(zip(jobs, pool.map(run_job, jobs.values())))
    return [
        AdvantageRow(M, models, {tag: estimates[mi, m.flip_probability] for tag, m in models.items()})
        for mi, (M, models) in enumerate(grid)
    ]
