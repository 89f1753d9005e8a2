"""Classical (per-source hidden variable) models of the star network.

Three routes are provided: the exactly saturating response family (each
observer flips a shared source bit with a setting-dependent probability),
reproducible random sampling of finite classical models, and exhaustive
enumeration of deterministic strategies for single-source networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkConfig, fwht, over_budget, parity_signs, subsets_of, xy_setting_map
from .quantum import CorrelationTable, bob_setting_count, compose_network

MAX_HIDDEN_COMBINATIONS = 1 << 16

# Sampled models come from a counter-based stream (Salmon et al., SC 2011) on
# the SplitMix64 finalizer (Steele, Lea and Flood, OOPSLA 2014); reports name it.
SAMPLE_STREAM = "splitmix64-v1"
MAX_SAMPLE_SEED = (1 << 63) - 1
SAMPLE_BLOCK_ENTRIES = 1 << 22  # entries a sampling block holds (32 MiB per float64 array)


def _check_probabilities(p: np.ndarray) -> None:
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("response probabilities must lie in [0, 1]")


def saturating_probabilities(p, config: NetworkConfig) -> np.ndarray:
    """Broadcast ``p`` to one response probability per (source, branch)."""
    if not config.is_homogeneous():
        raise ValueError("the saturating family is defined on even networks")
    arr = np.broadcast_to(
        np.asarray(p, dtype=np.float64), (config.n, config.max_branch)
    ).copy()
    _check_probabilities(arr)
    return arr


def saturating_entries(p, config: NetworkConfig) -> np.ndarray:
    """Closed-form spectrum entries of the saturating family.

    Entry for subset X: prod_j (prod_{k in X} (1-p_j^k)) (prod_{k not in X} p_j^k).
    Source-symmetric p makes the entries a product distribution over branch
    positions, so the Bell value hits the classical bound exactly: the
    Kronecker product over positions k of (prod_j p_j^k, prod_j (1-p_j^k)).
    """
    arr = saturating_probabilities(p, config)
    subsets_of(config.max_branch)  # bounds the 2**max_branch entries
    entries = np.ones(1)
    for outside, inside in zip(arr.prod(axis=0), (1.0 - arr).prod(axis=0)):
        entries = np.multiply.outer([outside, inside], entries).ravel()
    return entries


def saturating_table(p, config: NetworkConfig) -> CorrelationTable:
    """Execute the saturating strategy by exact expectation.

    Every source carries a uniform bit; each observer answers that bit,
    flipped with probability 1-p_j^k when its setting is 1.  Per source,
    the center observer's bit is the source bit when the branch count is
    odd and 0 otherwise, at both of his settings; :func:`compose_network`
    joins the one-source tables, so he announces the XOR of those bits.
    The table's values are a read-only view that repeats one setting.
    """
    arr = saturating_probabilities(p, config)
    tables = []
    for probs in arr:
        # given[x, a]: probability of outcome word a at setting word x when
        # the source bit is 0; bit 1 complements every answer, reversing a.
        given = np.ones((1, 1))
        for keep in probs:
            given = np.kron([[1.0, 0.0], [keep, 1.0 - keep]], given)
        flipped = given[:, ::-1]
        per_bit = [given, flipped] if len(probs) & 1 else [given + flipped, 0 * given]
        values = np.stack(per_bit, axis=-1)[:, None] / 2  # one center setting
        tables.append(CorrelationTable(NetworkConfig(1, (len(probs),)), values))
    joint = compose_network(tables).values
    return CorrelationTable(config, np.broadcast_to(joint, (len(joint), 2, len(joint), 2)))


@dataclass(frozen=True, eq=False)
class SampledModel:
    """A finite classical model drawn from one seed.

    ``weights[j]`` is the hidden-variable distribution of source ``j``;
    ``responses[j][k, x, v]`` is observer (j,k)'s answer to setting ``x``
    at hidden value ``v``; ``center_bits[w, y]`` is the center observer's
    answer at setting ``y`` when the packed hidden word is ``w`` (source 0
    in the lowest base-``lattice`` digit).
    """

    config: NetworkConfig
    lattice: int
    weights: np.ndarray
    responses: tuple
    center_bits: np.ndarray

    @property
    def n_center_settings(self) -> int:
        return self.center_bits.shape[1]


def _model_entries(config: NetworkConfig, lattice: int) -> int:
    """Entries one sampled model holds in a block: its center signs, or its
    per-source factors if more, at every subset mask."""
    if lattice < 1:
        raise ValueError("lattice must hold at least one hidden value")
    if lattice ** config.n > MAX_HIDDEN_COMBINATIONS:
        raise ValueError("hidden-variable combination count too large")
    per_mask = max(lattice ** config.n, config.n * lattice)
    bits = math.log2(per_mask) + config.max_branch
    if refusal := over_budget("one sampled model", bits, SAMPLE_BLOCK_ENTRIES.bit_length() - 1):
        raise ValueError(refusal)
    return per_mask << config.max_branch


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (wrapping)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_words(seeds, count: int) -> np.ndarray:
    """Word c < count of seed s is mix(mix(s) + (c+1)·γ) mod 2**64; one row per seed."""
    seeds = np.asarray(seeds)
    if seeds.dtype.kind not in "iu" or seeds.min() < 0 or int(seeds.max()) > MAX_SAMPLE_SEED:
        raise ValueError(f"sample seeds must be integers in 0..{MAX_SAMPLE_SEED}")
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return _mix(_mix(seeds.astype(np.uint64).reshape(-1))[:, None] + steps)


def _draw(seeds, config: NetworkConfig, lattice: int):
    """Weights, response bits and center bits of each seed's model: ``n·lattice``
    words of weights, then bits (lowest first) for each source, then the center."""
    _model_entries(config, lattice)
    combos, n_y, n_weights = lattice ** config.n, bob_setting_count(config), config.n * lattice
    sizes = [2 * lattice * size for size in config.branches] + [combos * n_y]
    words = _stream_words(seeds, n_weights - (-sum(sizes) // 64))
    # Top 53 bits, half a step into (0, 1): -log gives unit exponentials,
    # which normalize to a flat Dirichlet (exactly 1.0 on one point).
    top = (words[:, :n_weights] >> np.uint64(11)).astype(np.float64)
    weights = -np.log((top + 0.5) / 2.0**53).reshape(-1, config.n, lattice)
    weights /= weights.sum(axis=2, keepdims=True)
    packed = np.ascontiguousarray(words[:, n_weights:], dtype="<u8").view(np.uint8)
    bits = np.unpackbits(packed, axis=1, count=sum(sizes), bitorder="little")
    parts = np.split(bits, np.cumsum(sizes), axis=1)
    responses = [part.reshape(-1, size, 2, lattice) for part, size in zip(parts, config.branches)]
    return weights, responses, parts[config.n].reshape(-1, combos, n_y)


def sample_model(seed: int, config: NetworkConfig, lattice: int = 2) -> SampledModel:
    """Draw a random classical model from a seed in ``0..2**63 - 1``: the
    seed's words of the stream :data:`SAMPLE_STREAM` (``splitmix64-v1``),
    read exactly as :func:`sampled_spectra` reads them."""
    weights, responses, center = _draw([seed], config, lattice)
    return SampledModel(config, lattice, weights[0], tuple(r[0] for r in responses), center[0])


def model_table(model: SampledModel) -> CorrelationTable:
    """Exact correlation table induced by a sampled model."""
    config = model.config
    dim = 1 << config.total
    n_y = model.n_center_settings
    values = np.zeros((dim, n_y, dim, 2))
    words = np.arange(dim)
    # Per source: outcome word for each (setting word, hidden value).
    local = [_outcome_words(answers) for answers in model.responses]
    for combo in range(model.lattice ** config.n):
        digits = [(combo // model.lattice ** j) % model.lattice for j in range(config.n)]
        weight = 1.0
        outcome = np.zeros(dim, dtype=np.int64)
        for j in range(config.n):
            weight *= model.weights[j, digits[j]]
            sub = (words >> config.offsets[j]) & ((1 << config.branches[j]) - 1)
            outcome |= local[j][sub, digits[j]] << config.offsets[j]
        for y in range(n_y):
            values[words, y, outcome, model.center_bits[combo, y]] += weight
    return CorrelationTable(config, values)


def sampled_spectra(seeds, config: NetworkConfig, lattice: int = 2, setting_map=None):
    """Spectrum entries for many seeded models at once.

    Works on the factorized response algebra instead of building each
    model's table, and draws blocks of at most SAMPLE_BLOCK_ENTRIES entries
    from the stream :data:`SAMPLE_STREAM` in a few array passes.  ``seeds``
    is a range, list or array in ``0..2**63 - 1``; row ``i`` is the model
    of ``seeds[i]``, whatever the blocks, and columns ascend by subset mask.
    """
    smap = xy_setting_map(config.max_branch) if setting_map is None else np.asarray(setting_map)
    if smap.shape != (1 << config.max_branch,):
        raise ValueError("need one center setting per subset mask")
    step = SAMPLE_BLOCK_ENTRIES // _model_entries(config, lattice)
    masks = np.arange(1 << config.max_branch)
    out = np.empty((len(seeds), masks.size))
    for lo in range(0, len(seeds), step):
        weights, responses, center = _draw(seeds[lo : lo + step], config, lattice)
        entries = (1.0 - 2.0 * center)[:, :, smap]  # (B, hidden word, mask)
        for j, size in enumerate(config.branches):
            # Subset factors: the Walsh–Hadamard transform of the response
            # sign over local setting words, read at each subset mask
            # truncated to the source's branch count, times the weights.
            signs = parity_signs(size)[_outcome_words(responses[j].transpose(1, 2, 0, 3))]
            f = fwht(signs) / (1 << size)  # (local mask, B, lattice)
            factor = f[masks & ((1 << size) - 1)].transpose(1, 2, 0) * weights[:, j, :, None]
            # Sum out source j's digit, the lowest left in the hidden word.
            entries = entries.reshape(len(factor), -1, lattice, masks.size)
            entries = np.einsum("brdm,bdm->brm", entries, factor)
        out[lo : lo + step] = entries[:, 0]
    return out


def _outcome_words(answers: np.ndarray) -> np.ndarray:
    """Packed outcome word of a source's observers for every setting word.

    ``answers[k, s, ...]`` is observer k's answer bit at setting s; the
    result is indexed ``[x, ...]`` with observer k's setting in bit k of x
    and its answer in bit k of the word.
    """
    size = answers.shape[0]
    settings = np.arange(1 << size)
    words = np.zeros((1 << size,) + answers.shape[2:], dtype=np.int64)
    for k in range(size):
        words |= answers[k, (settings >> k) & 1].astype(np.int64) << k
    return words


def sampled_bell_values(seeds, config: NetworkConfig, lattice: int = 2, setting_map=None):
    """Bell value of each seeded model, batch-evaluated block by block."""
    step = SAMPLE_BLOCK_ENTRIES // _model_entries(config, lattice)
    out = np.empty(len(seeds))
    for lo in range(0, len(seeds), step):
        entries = sampled_spectra(seeds[lo : lo + step], config, lattice, setting_map)
        out[lo : lo + step] = (np.abs(entries) ** (1.0 / config.n)).sum(axis=1)
    return out


def deterministic_maximum(config: NetworkConfig):
    """Exhaustive maximum of the Bell value over deterministic strategies.

    Sound as a classical bound certificate only for one source, where the
    value is convex in the model; more sources need sampling instead.
    Returns the maximum and the first strategy attaining it, with each
    response encoded as (answer at setting 0, answer at setting 1).  The
    center answer only flips signs that the absolute values discard, so
    it is reported as (0, 0).
    """
    if config.n != 1:
        raise ValueError("enumeration certifies the bound only for one source")
    size = config.max_branch
    if refusal := over_budget("the enumeration", 3 * size):  # entries[x, code]
        raise ValueError(refusal)
    # answers[k, s, code]: bit 2k + s of the response code.
    codes = np.arange(1 << (2 * size))
    answers = (codes >> np.arange(2 * size)[:, None]).reshape(size, 2, -1) & 1
    entries = fwht(parity_signs(size)[_outcome_words(answers)]) / (1 << size)
    values = np.abs(entries).sum(axis=0)
    code = int(np.argmax(values))
    responses = [((code >> (2 * k)) & 1, (code >> (2 * k + 1)) & 1) for k in range(size)]
    return float(values[code]), {"responses": responses, "center": (0, 0)}


def region_slice(
    config: NetworkConfig,
    fixed_value: float,
    grid: int,
    fixed_mask: int = 3,
    tol: float | None = None,
):
    """Sample the classical spectrum region on an L=2 network slice.

    Sweeps the source-symmetric saturating family over a (p1, p2) grid,
    keeps the points whose fixed-subset entry is within ``tol`` of
    ``fixed_value``, and returns (column names, rows) for the other three
    entries.  The default tolerance tracks the grid pitch.
    """
    if not config.is_homogeneous() or config.max_branch != 2:
        raise ValueError("region slices are defined for two-branch even networks")
    if grid < 2:
        raise ValueError("grid must have at least two points")
    if not 0 <= fixed_mask < 4:
        raise ValueError("fixed subset mask must lie in 0..3")
    if tol is None:
        tol = config.n / (grid - 1)
    ps = np.linspace(0.0, 1.0, grid)
    p1, p2 = np.meshgrid(ps, ps, indexing="ij")
    n = config.n
    entries = [
        (p1 * p2) ** n,
        ((1 - p1) * p2) ** n,
        (p1 * (1 - p2)) ** n,
        ((1 - p1) * (1 - p2)) ** n,
    ]
    keep = np.abs(entries[fixed_mask] - fixed_value) < tol
    free = [m for m in range(4) if m != fixed_mask]
    names = {0: "K_empty", 1: "K_1", 2: "K_2", 3: "K_12"}
    rows = np.stack([entries[m][keep] for m in free], axis=1)
    return [names[m] for m in free], rows


def geometric_mean_inequality_sides(c) -> tuple[float, float]:
    """Both sides of the mixed-power bound used by the classical proof.

    For a nonnegative matrix c with one row per source: the sum over
    columns of the geometric means never exceeds the geometric mean of the
    row sums.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("need a 2-d array (sources by terms)")
    if c.min() < 0:
        raise ValueError("entries must be nonnegative")
    n = c.shape[0]
    lhs = float((np.prod(c, axis=0) ** (1.0 / n)).sum())
    rhs = float(np.prod(c.sum(axis=1) ** (1.0 / n)))
    return lhs, rhs
