"""Shared helpers: the clipped exponential, the checked fields of the input
types, seeded streams, intervals, CSV and JSON files."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import inv_boxcox

# exp() overflows a little above 709; clamp below that with margin.
EXP_LIMIT = 700.0

Z95 = 1.959963984540054


# 0-d float64 bounds, which a ufunc takes without converting a Python float
# on every call (1.8 against 2.5 us on a 6-vector)
_EXP_LO, _EXP_HI = np.array(-EXP_LIMIT), np.array(EXP_LIMIT)


def clipped_exp(x):
    """exp(x) with x clipped to +-EXP_LIMIT: the one exponent policy.

    np.minimum/np.maximum give the bits of a clip, NaN included, in less
    than half its time.  The result is float64 whatever the dtype of x: a
    float32 x comes back float64, with the bits of the float64 clip."""
    return np.exp(np.minimum(np.maximum(x, _EXP_LO), _EXP_HI))


def libm_exp(x):
    """Elementwise math.exp over an array, bit-identical to scalar calls.

    numpy's vectorised exp can differ from the C library's by one ulp, which
    would break the bit identity of the array quadrature with its scalar
    reference.  scipy's Box-Cox inverse at lambda 0 is one compiled loop that
    calls the C library's exp on each entry, as math.exp does.  The result
    has the shape of x (a numpy scalar for a 0-d x).  Raises OverflowError
    where math.exp does: an infinite result from a finite entry.
    """
    x = np.asarray(x, dtype=float)
    y = inv_boxcox(x, 0.0)
    inf = np.isinf(y)
    if inf.any() and np.isfinite(x[inf]).any():
        raise OverflowError("math range error")
    return y


def set_fields(obj, ndim, **fields):
    """Store each numeric field of the frozen dataclass obj: an owned,
    read-only float array of at least ndim dimensions, or a Python float when
    ndim is 0.  Raises ValueError naming the first field with a non-finite
    entry (None reads as NaN), or with an array where ndim 0 asks for a
    number.  A caller's array is never kept or frozen."""
    for name, value in fields.items():
        arr = np.array(value, dtype=float, ndmin=ndim)
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
        if ndim == 0 and arr.ndim:
            raise ValueError(f"{name} must be a number, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(obj, name, float(arr) if ndim == 0 else arr)


def check_count(**counts):
    """Raise ValueError naming the first of counts (name=value) that is not
    an integer.  numpy integers pass; a bool is an Integral, but no count."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def wilson_interval(k, n, z=Z95):
    """Wilson score interval for a binomial proportion k/n, 0 <= k <= n."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, n], got k = {k}, n = {n}")
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, the hash constants of the pool (A) and of generate_state
# (B), and the multipliers of its mix
_MASK32, _POOL = 0xFFFFFFFF, 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(start, mult, count):
    """The constants of count hashes in a row: each XORs its value with the
    current constant, advances it and multiplies by the new one."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return (np.array(out[:-1], dtype=np.uint32)[:, None],
            np.array(out[1:], dtype=np.uint32)[:, None])


def _mix(x, y):
    """SeedSequence's mix of two uint32 words, on uint32 arrays (which wrap
    as the words do)."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


class _PcgSeed(ISeedSequence):
    """The four uint64 words PCG64 asks its seed sequence for
    (``generate_state(4, np.uint64)``), computed beforehand."""

    def __init__(self, words):
        self._words = words

    def generate_state(self, n_words, dtype):
        return self._words


def trial_rngs(seed, first, stop):
    """The generators of trials first .. stop - 1, built together: for each
    index i the state of ``default_rng(SeedSequence(seed, spawn_key=(i,)))``.

    SeedSequence hashes its entropy, the seed's 32-bit words padded to four,
    into a pool and then mixes the spawn word i into each pool word; only
    that last mixing and the output hash depend on i, so both run as
    uint32 array arithmetic over all indices at once, and each PCG64 is
    seeded from its words through numpy's public ``ISeedSequence``: about
    1.3 us a stream against 11 us for a SeedSequence each.  The seed must
    be an integer; a negative one raises SeedSequence's ValueError.  Indices
    run below 2**32 (a one-word spawn key).  The words of every index are
    computed by the call; the iterator it returns builds each Generator as
    it is taken.  A stream's seed sequence holds only its words, so the
    Generator cannot ``spawn``.
    """
    if not isinstance(seed, numbers.Integral) or seed < 0:
        np.random.SeedSequence(seed)  # raises for a negative or non-integer seed
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if not 0 <= first <= stop <= 2 ** 32:
        raise ValueError(f"trial indices must lie in [0, 2**32], got "
                         f"{first} .. {stop}")
    # a spawn key pads the seed's words with zeros, which SeedSequence(seed)
    # hashes for missing words too, so the pools before the spawn word agree:
    # _POOL ** 2 hashes, and _POOL more for each word past the pool size
    n_words = max(1, -(-int(seed).bit_length() // 32))
    hashes = _POOL * _POOL + _POOL * max(0, n_words - _POOL)
    hash_const = _INIT_A * pow(_MULT_A, hashes, 2 ** 32) & _MASK32
    pool = np.random.SeedSequence(seed).pool
    index = np.arange(first, stop, dtype=np.uint32)
    # mix the spawn word into each pool word
    xor, mult = _hash_constants(hash_const, _MULT_A, _POOL)
    value = (index ^ xor) * mult
    pool = _mix(pool[:, None], value ^ value >> 16)
    # generate_state(4, np.uint64): eight uint32 words cycling the pool,
    # paired little-endian into uint64
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    value = (pool[np.arange(2 * _POOL) % _POOL] ^ xor) * mult
    words = np.ascontiguousarray((value ^ value >> 16).T, dtype="<u4")
    words = words.view("<u8").astype(np.uint64)
    return (np.random.Generator(np.random.PCG64(_PcgSeed(row)))
            for row in words)


def write_csv(path, header, *columns):
    """Write a header line, then one line per row at 17 significant digits.

    Each column is a 1-D or 2-D array with one entry or row per line; rows
    are joined one line at a time, so no copy of the whole table is made.
    """
    blocks = [np.asarray(c, dtype=float).reshape(len(c), -1) for c in columns]
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for parts in zip(*blocks):
            fh.write(row_format % tuple(np.concatenate(parts).tolist()))


def fields_of(result):
    """A dataclass's fields by name: the JSON object of a result."""
    return {field.name: getattr(result, field.name)
            for field in dataclasses.fields(result)}


def _plain(value):
    """What json.dumps writes for a value it has no rule for: a dataclass as
    its fields, a numpy array or scalar as lists and numbers."""
    if dataclasses.is_dataclass(value):
        return fields_of(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_bytes(payload):
    """The one JSON file format of hamlv: two-space indent, sorted keys, a
    final newline, ASCII-encoded, and results written by ``_plain``."""
    return (json.dumps(payload, indent=2, sort_keys=True, default=_plain)
            + "\n").encode()


def write_json(path, payload):
    with open(path, "wb") as fh:
        fh.write(json_bytes(payload))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def read_json(path, what):
    """The parsed JSON of a `what` file; a missing or unparsable file raises
    ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}")


def _is_array(value):
    """A number or a nested list of numbers (one type scan per list)."""
    kinds = set(map(type, value)) if isinstance(value, list) else {type(value)}
    return kinds <= {int, float} or (kinds == {list}
                                     and all(map(_is_array, value)))


def json_fields(data, what, numbers=(), arrays=(), required=()):
    """The JSON object data of `what` without its null fields (a null takes
    the default); fields in numbers must be numbers, in arrays numbers or
    nested lists of numbers, and the required ones must be there."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    data = {key: value for key, value in data.items() if value is not None}
    for key in required:
        if key not in data:
            raise ValueError(f"{what} missing field {key!r}")
    for key in [key for key in numbers + arrays if key in data]:
        if not _is_array(data[key]) or (key in numbers
                                        and isinstance(data[key], list)):
            raise ValueError(f"{what}: field {key!r} must be a number" + (
                " or an array of numbers" if key in arrays else ""))
    return data
