"""Deterministic seed derivation and replayable per-user randomness.

Every random draw in the toolkit comes from one of two sources:

* named substreams: ``numpy`` generators keyed by a 64-bit master seed plus
  a sequence of labels (``substream(seed, "population")``), used wherever a
  stateful stream is natural (instance generation, channel simulation,
  public coins);
* counter-style response draws: a pure hash of
  ``(master seed, user id, round index)`` mapped to a uniform in [0, 1),
  used for user responses so that executions are replayable and the draw
  for a given user in a given round does not depend on evaluation order.

A response draw is still a pure function of (seed, user, round); only its
evaluation is split. :func:`user_keys` hashes the round-independent part,
``mix(id ^ mix(seed))``, which an execution computes once per user, and
:func:`round_draws` finishes the hash for one round. The engine compares the
53-bit integer draw ``k`` with :func:`response_limit` of the law ``p``, which
is exactly ``k * 2**-53 < p``.

Both are built on the splitmix64 finalizer.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53
_TWO_53 = 2.0**53


def _mix64(z: int) -> int:
    """splitmix64 finalizer; a bijection on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _label_to_int(label) -> int:
    if isinstance(label, str):
        digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    return int(label) & _MASK64


def derive_key(seed: int, *labels) -> int:
    """Derive a 64-bit subkey from a master seed and a label path.

    Labels may be ints or strings; distinct label paths give independent-
    looking keys. Deterministic across processes and platforms.
    """
    h = _mix64((int(seed) & _MASK64) ^ _GOLDEN)
    for label in labels:
        h = _mix64(h ^ _label_to_int(label) ^ _GOLDEN)
    return h


def substream(seed: int, *labels) -> np.random.Generator:
    """A fresh numpy generator for the given (seed, label path)."""
    return np.random.default_rng(derive_key(seed, *labels))


def response_uniform(seed: int, user_id: int, round_index: int) -> float:
    """Uniform [0, 1) draw for one user's response in one round.

    Pure function of its arguments; agrees elementwise with
    :func:`response_uniforms`.
    """
    h = _mix64((int(seed) & _MASK64) ^ _GOLDEN)
    h = _mix64(h ^ (int(user_id) & _MASK64))
    h = _mix64(h ^ (int(round_index) & _MASK64))
    return (h >> 11) * _INV_2_53


def response_uniforms(seed: int, user_ids: np.ndarray, round_index: int) -> np.ndarray:
    """Vectorized :func:`response_uniform` over an array of user ids."""
    return round_draws(user_keys(seed, user_ids), round_index).astype(np.float64) * _INV_2_53


def user_keys(seed: int, user_ids: np.ndarray) -> np.ndarray:
    """The round-independent part of each user's response hash (uint64)."""
    base = np.uint64(_mix64((int(seed) & _MASK64) ^ _GOLDEN))
    return _mix64_np(np.asarray(user_ids, dtype=np.uint64) ^ base)


def round_draws(keys: np.ndarray, round_index: int) -> np.ndarray:
    """53-bit integer draws ``k`` (uint64) of the users with ``keys`` in one
    round; the uniform draw is ``k * 2**-53``."""
    z = _mix64_np(keys ^ np.uint64(int(round_index) & _MASK64))
    z >>= np.uint64(11)
    return z


def response_limit(p: float) -> int:
    """``ceil(p * 2**53)`` for a law ``p`` in [0, 1]: a draw ``k`` from
    :func:`round_draws` is below it exactly when ``k * 2**-53 < p``, because
    ``k`` is an integer and ``p * 2**53`` is exact."""
    return math.ceil(p * _TWO_53)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a fresh uint64 array, mixed in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z
