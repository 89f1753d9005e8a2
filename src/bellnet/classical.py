"""Classical (per-source hidden variable) models of the star network.

Three routes are provided: the exactly saturating response family (each
observer flips a shared source bit with a setting-dependent probability),
reproducible random sampling of finite classical models, and exhaustive
enumeration of deterministic strategies for single-source networks.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .network import NetworkConfig, fwht, over_budget, parity_signs, subsets_of, xy_setting_map
from .quantum import _BLOCK_ENTRIES, CorrelationTable, bob_setting_count
from .quantum import compose_network

MAX_HIDDEN_COMBINATIONS = 1 << 16

# Sampled models come from a counter-based stream (Salmon et al., SC 2011) on
# the SplitMix64 finalizer (Steele, Lea and Flood, OOPSLA 2014); reports name it.
SAMPLE_STREAM = "splitmix64-v1"
MAX_SAMPLE_SEED = (1 << 63) - 1
SAMPLE_BLOCK_ENTRIES = 1 << 22  # entries a sampling block holds (32 MiB per float64 array)
# Models of the first sampling block whose spectrum rows sampled_bell_values
# hands back, for a caller to check against an independent route.
PROBE_MODELS = 5
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # the stream's counter step, 2**64 over the golden ratio
_MIX_ROUNDS = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
)
_MIX_LAST = np.uint64(31)
_MANTISSA_SHIFT = np.uint64(64 - 53)
# Entries one block of model_tables' scatter holds, over (model, combo)
# pairs of one group: its int64 indices and float64 weights are 2 MiB each,
# so a group stays near its tables' memory (at n=2, L=5, lattice 256,
# blocks of 2^22 doubled the peak RSS).
_SCATTER_ENTRIES = 1 << 18


def _check_probabilities(p: np.ndarray) -> None:
    """Refuse a probability outside ``[0, 1]``, NaN included: ``min`` and
    ``max`` carry a NaN through, and every comparison with one is false."""
    if not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("response probabilities must lie in [0, 1]")


def saturating_probabilities(p, config: NetworkConfig) -> np.ndarray:
    """Broadcast ``p`` to one response probability per (source, branch), after its leading axes."""
    if not config.is_homogeneous():
        raise ValueError("the saturating family is defined on even networks")
    p = np.asarray(p, dtype=np.float64)
    arr = np.broadcast_to(p, np.broadcast_shapes(p.shape, (config.n, config.max_branch))).copy()
    _check_probabilities(arr)
    return arr


def saturating_entries(p, config: NetworkConfig) -> np.ndarray:
    """Closed-form spectrum entries of the saturating family.

    Entry for subset X: prod_j (prod_{k in X} (1-p_j^k)) (prod_{k not in X} p_j^k).
    Source-symmetric p makes the entries a product distribution over branch
    positions, so the Bell value hits the classical bound exactly: the
    Kronecker product over positions k of (prod_j p_j^k, prod_j (1-p_j^k)).
    Leading axes of ``p``, such as a ``(G, 1, 1)`` grid, lead the entries too.
    """
    arr = saturating_probabilities(p, config)
    subsets_of(config.max_branch)  # bounds the 2**max_branch entries
    pairs = np.stack([arr.prod(axis=-2), (1.0 - arr).prod(axis=-2)], axis=-1)  # (..., L, 2)
    entries = np.ones(arr.shape[:-2] + (1,))
    for k in range(config.max_branch):
        entries = (pairs[..., k, :, None] * entries[..., None, :]).reshape(*arr.shape[:-2], -1)
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
    if arr.ndim != 2:
        raise ValueError("the saturating table takes one probability per observer, not a grid")
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
    """One sampled model's share of a sampling block: its hidden words (or
    its per-source hidden values, if more) times its subset masks.

    The batch kernel holds a few arrays over a model's hidden words and one
    row of mask cells, well inside this share; the share still fixes how
    many models a block draws and which models are refused."""
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
    for shift, factor in _MIX_ROUNDS:
        z = (z ^ (z >> shift)) * factor
    return z ^ (z >> _MIX_LAST)


def _stream_words(seeds, count: int) -> np.ndarray:
    """Word c < count of seed s is mix(mix(s) + (c+1)·γ) mod 2**64; one row per seed.

    A step-1 ``range`` inside ``0..2**63 - 1`` becomes its seeds with one
    ``np.arange`` in uint64, exact up to the last seed; any other input
    goes through ``np.asarray`` and is refused unless it holds integers
    in that domain."""
    if (
        isinstance(seeds, range)
        and seeds.step == 1
        and 0 <= seeds.start < seeds.stop <= MAX_SAMPLE_SEED + 1
    ):
        seeds = np.arange(seeds.start, seeds.stop, dtype=np.uint64)
    else:
        seeds = np.asarray(seeds)
        if seeds.dtype.kind not in "iu" or seeds.min() < 0 or int(seeds.max()) > MAX_SAMPLE_SEED:
            raise ValueError(f"sample seeds must be integers in 0..{MAX_SAMPLE_SEED}")
    steps = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    return _mix(_mix(seeds.astype(np.uint64, copy=False).reshape(-1))[:, None] + steps)


def _draw(seeds, config: NetworkConfig, lattice: int):
    """Weights, response bits and center bits of each seed's model: ``n·lattice``
    words of weights, then bits (lowest first) for each source, then the center.

    The bits are one ``unpackbits`` of the words after the weights; each
    source's and the center's bits are slices of it at their cumulative
    offsets."""
    _model_entries(config, lattice)
    combos, n_y, n_weights = lattice ** config.n, bob_setting_count(config), config.n * lattice
    sizes = [2 * lattice * size for size in config.branches] + [combos * n_y]
    words = _stream_words(seeds, n_weights - (-sum(sizes) // 64))
    # Top 53 bits, half a step into (0, 1): -log gives unit exponentials,
    # which normalize to a flat Dirichlet (exactly 1.0 on one point).
    top = (words[:, :n_weights] >> _MANTISSA_SHIFT).astype(np.float64)
    weights = -np.log((top + 0.5) / 2.0**53).reshape(-1, config.n, lattice)
    weights /= weights.sum(axis=2, keepdims=True)
    packed = np.ascontiguousarray(words[:, n_weights:], dtype="<u8").view(np.uint8)
    bits = np.unpackbits(packed, axis=1, count=sum(sizes), bitorder="little")
    starts = [0, *itertools.accumulate(sizes)]
    responses = [
        bits[:, lo:hi].reshape(-1, size, 2, lattice)
        for lo, hi, size in zip(starts, starts[1:], config.branches)
    ]
    return weights, responses, bits[:, starts[-2] :].reshape(-1, combos, n_y)


def sample_model(seed: int, config: NetworkConfig, lattice: int = 2) -> SampledModel:
    """Draw a random classical model from a seed in ``0..2**63 - 1``: the
    seed's words of the stream :data:`SAMPLE_STREAM` (``splitmix64-v1``),
    read exactly as :func:`sampled_spectra` reads them."""
    weights, responses, center = _draw([seed], config, lattice)
    return SampledModel(config, lattice, weights[0], tuple(r[0] for r in responses), center[0])


def model_table(model: SampledModel) -> CorrelationTable:
    """Exact correlation table induced by a sampled model: the one table
    of :func:`model_tables`."""
    (table,) = model_tables([model])
    return table


def model_tables(models) -> Iterator[CorrelationTable]:
    """Exact correlation table induced by each sampled model of one
    network and lattice, in order.

    The models go in groups of as many as keep their stacked tables within
    ``_BLOCK_ENTRIES`` entries, and at least one.  Each group is one
    scatter of its models' hidden words in ``(model, combo)`` order, a
    block of words at a time: each entry sums its weights in the order a
    loop over the words would, so every table equals that loop's to the
    last bit.  Each table's constructor then checks and signs its view of
    the group's stacked values.  The tables come one group at a time, so a
    caller that keeps only what it reads off each table holds one group,
    not all of them.
    """
    models = list(models)
    if any(m.config != models[0].config or m.lattice != models[0].lattice for m in models):
        raise ValueError("model_tables expects models of one network and lattice")
    return _grouped_tables(models)


def _grouped_tables(models) -> Iterator[CorrelationTable]:
    if not models:
        return
    dim, n_y = 1 << models[0].config.total, models[0].n_center_settings
    per_group = max(1, _BLOCK_ENTRIES // (dim * n_y * dim * 2))
    for lo in range(0, len(models), per_group):
        # No name here holds a table, so a group is freed once its tables are.
        yield from _group_tables(models[lo : lo + per_group])


def _group_tables(group) -> list[CorrelationTable]:
    """The tables of one group, each a view of the group's stacked
    ``(model, x, y, a, b)`` array: one ``np.add.at`` scatter over
    ``(model, combo)`` pairs in that order, ``_SCATTER_ENTRIES`` entries a
    block; each table's constructor then checks and signs its view."""
    config, lattice = group[0].config, group[0].lattice
    count, combos = len(group), lattice**config.n
    dim, n_y = 1 << config.total, group[0].n_center_settings
    values = np.zeros((count, dim, n_y, dim, 2))
    words = np.arange(dim)
    weights = np.stack([m.weights for m in group])  # (model, source, v)
    # Per source: its outcome word in place, doubled as the flat index
    # steps over (a, b) cells, one row per (model * lattice + v), then x.
    local = []
    for j, (offset, size) in enumerate(zip(config.offsets, config.branches)):
        answers = np.stack([m.responses[j] for m in group], axis=2)  # (k, s, model, v)
        per_word = _outcome_words(answers)[(words >> offset) & ((1 << size) - 1)]
        local.append(np.ascontiguousarray(per_word.reshape(dim, -1).T) << (offset + 1))
    center = np.stack([m.center_bits for m in group]).reshape(-1, n_y)  # (pair, y)
    cells = (words[:, None] * n_y + np.arange(n_y)) * (2 * dim)  # (x, y) row starts
    step = max(1, _SCATTER_ENTRIES // (dim * n_y))
    for lo in range(0, count * combos, step):
        model, combo = np.divmod(np.arange(lo, min(lo + step, count * combos)), combos)
        weight = np.ones(combo.size)
        outcome = np.zeros((combo.size, dim), dtype=np.int64)
        for j in range(config.n):
            digit = (combo // lattice**j) % lattice
            weight *= weights[model, j, digit]
            outcome |= local[j][model * lattice + digit]
        outcome += (model * values[0].size)[:, None]  # each model's own table
        flat = outcome[:, :, None] + cells  # (pair, x, y)
        flat += center[lo : lo + combo.size, None, :]
        np.add.at(values.reshape(-1), flat.reshape(-1), np.repeat(weight, dim * n_y))
    return [CorrelationTable(config, v) for v in values]


def sampled_spectra(seeds, config: NetworkConfig, lattice: int = 2):
    """Spectrum entries on the xy setting map for many seeded models at once.

    Deterministic responses factor per observer (Fine, PRL 48, 291 (1982)),
    so source ``j`` at hidden value ``v`` has one nonzero subset factor: the
    sign ``(-1)^(XOR_k a_k(0))`` at the mask of the observers whose answers
    differ between their settings.  A hidden word therefore lands on one
    mask, that of its widest source (the union of its sources' masks), if
    the sources agree on the positions they share, and nowhere otherwise.
    Each block of models sums its words' signed weights over every digit
    but the widest source's, then adds those into ``(model, mask)`` cells
    with one ``bincount``.  Blocks draw at most SAMPLE_BLOCK_ENTRIES
    entries' worth of models from the stream :data:`SAMPLE_STREAM`.
    ``seeds`` is a range, list or array in ``0..2**63 - 1``; row ``i`` is
    the model of ``seeds[i]``, whatever the blocks, and columns ascend by
    subset mask.
    """
    smap = xy_setting_map(config.max_branch)
    step = SAMPLE_BLOCK_ENTRIES // _model_entries(config, lattice)
    out = np.empty((len(seeds), smap.size))
    mask_type = np.min_scalar_type(smap.size - 1)
    for lo in range(0, len(seeds), step):
        weights, responses, center = _draw(seeds[lo : lo + step], config, lattice)
        batch = len(weights)
        # The batch is the last axis from here on, so that every array pass
        # runs along it rather than along axes of two or three values.
        weights = np.ascontiguousarray(weights.transpose(1, 2, 0))
        # Per hidden word so far (source 0 in the lowest digit): the union
        # of its sources' masks, whether they agree, and its signed weight.
        masks = np.zeros((1, batch), dtype=mask_type)
        kept = np.ones((1, batch), dtype=bool)
        values = np.ones((1, batch))
        width = 0
        for j, size in enumerate(config.branches):
            answers = np.ascontiguousarray(responses[j].transpose(1, 2, 3, 0))  # (k, x, v, batch)
            # The one mask of each hidden value: the observers whose answers differ.
            flips = (answers[:, 0] ^ answers[:, 1]).astype(mask_type)
            flips <<= np.arange(size, dtype=mask_type)[:, None, None]
            star = flips.sum(axis=0, dtype=mask_type)
            signed = weights[j] * (1.0 - 2.0 * np.bitwise_xor.reduce(answers[:, 0], axis=0))
            if size >= width:
                widest, wide_star = j, star
            common = (1 << min(size, width)) - 1
            agree = (star & common)[:, None] == (masks & common)[None]
            kept = (agree & kept[None]).reshape(-1, batch)
            masks = (star[:, None] | masks[None]).reshape(-1, batch)
            values = (signed[:, None] * values[None]).reshape(-1, batch)
            width = max(width, size)
        # Axes: higher digits, the widest source's digit, lower digits, batch.
        values = values.reshape(-1, lattice, lattice**widest, batch)
        # Each word's center bit at its mask's setting, picked by arithmetic
        # from the bits of the first two settings.
        bits = np.ascontiguousarray(center[:, :, :2].transpose(1, 2, 0))
        bits = bits.reshape(values.shape[:3] + (2, batch))
        setting = smap[wide_star].astype(np.uint8).reshape(lattice, 1, batch)
        bits = bits[..., 0, :] ^ (setting & (bits[..., 0, :] ^ bits[..., 1, :]))
        values *= kept.reshape(values.shape) * (1 - 2 * bits.view(np.int8))
        cells = wide_star + (np.arange(batch) << config.max_branch)
        # A batch axis of one would let numpy sum the others pairwise, in
        # another order than a longer batch gets: pad it with a zero model.
        if batch == 1:
            values = np.concatenate((values, np.zeros_like(values)), axis=-1)
        per_value = values.sum(axis=(0, 2))[:, :batch]
        sums = np.bincount(cells.ravel(), per_value.ravel(), minlength=batch << config.max_branch)
        out[lo : lo + step] = sums.reshape(batch, -1)
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


def sampled_bell_values(seeds, config: NetworkConfig, lattice: int = 2):
    """Bell value of each seeded model, batch-evaluated block by block, and
    the spectrum rows of its first :data:`PROBE_MODELS` seeds (all of them,
    if fewer).

    Those rows are copied out of the first block's spectra, the very rows
    its first values are read from, so a caller that checks them against
    another route checks what it reports, and no block outlives its pass.
    """
    step = SAMPLE_BLOCK_ENTRIES // _model_entries(config, lattice)
    out = np.empty(len(seeds))
    head = np.empty((0, 1 << config.max_branch))
    for lo in range(0, len(seeds), step):
        entries = sampled_spectra(seeds[lo : lo + step], config, lattice)
        if lo == 0:
            head = entries[:PROBE_MODELS].copy()
        out[lo : lo + step] = (np.abs(entries) ** (1.0 / config.n)).sum(axis=1)
    return out, head


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
    n = config.n

    def entry(mask, p1, p2):
        # K_mask of the family at (p1, p2): bit 0 of mask flips p1, bit 1 flips p2
        return ((1 - p1 if mask & 1 else p1) * (1 - p2 if mask & 2 else p2)) ** n

    # Cut on the fixed entry over the grid first, then evaluate the free
    # entries only at the kept points, in the row-major order of the grid.
    keep = np.abs(entry(fixed_mask, ps[:, None], ps[None, :]) - fixed_value) < tol
    i, j = np.nonzero(keep)
    free = [m for m in range(4) if m != fixed_mask]
    names = {0: "K_empty", 1: "K_1", 2: "K_2", 3: "K_12"}
    rows = np.stack([entry(m, ps[i], ps[j]) for m in free], axis=1)
    return [names[m] for m in free], rows

