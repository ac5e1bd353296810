"""Deterministic seed derivation and replayable per-user randomness.

Every random draw in the toolkit comes from one of two sources:

* named substreams: ``numpy`` generators keyed by a 64-bit master seed plus
  a sequence of labels (``substream(seed, "population")``), used wherever a
  stateful stream is natural (instance generation, channel simulation);
* counter-style response draws: a pure hash of
  ``(master seed, user id, round index)`` mapped to a uniform in [0, 1),
  used for user responses so that executions are replayable and the draw
  for a given user in a given round does not depend on evaluation order.

Both are built on the splitmix64 finalizer. A response draw is still a pure
function of (seed, user, round); only its evaluation is split.
:func:`user_keys` hashes the round-independent part, ``mix(id ^ mix(seed))``,
which an execution computes once per user, and :func:`round_draws` finishes
the hash for one round. The 53-bit integer draw ``k`` is below
:func:`response_limit` of the law ``p`` exactly when ``k * 2**-53 < p``.

The engine's kernel, :func:`round_bits`, gives the same bits from eight numpy
passes a round by two exact identities. A logical right shift distributes
over xor, so for ``x = key ^ r`` the finalizer's first step
``x ^ (x >> 30)`` is ``(key ^ (key >> 30)) ^ (r ^ (r >> 30))``:
:func:`premixed_keys` applies it to each key once per execution, and a round
xors in ``r ^ (r >> 30)`` as one 64-bit word. And the draw is ``k = h >> 11``
of the 64-bit hash ``h``, so for an integer limit ``L < 2**53``, ``k < L``
exactly when ``h < L << 11``: :func:`hash_limit` compares the hash before its
last shift. Law 1 is the one exception: its limit ``2**53`` would need
``2**64``, which no uint64 holds, so its hash limit is ``2**64 - 1``, the one
limit with low bits set, and :func:`round_bits` sets those users' bits itself.
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
_MIX_A_NP, _MIX_B_NP = np.uint64(_MIX_A), np.uint64(_MIX_B)
_S11, _S27, _S30, _S31 = map(np.uint64, (11, 27, 30, 31))


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
    return _finish(_premix(np.asarray(user_ids, dtype=np.uint64) ^ base))


def premixed_keys(seed: int, user_ids: np.ndarray) -> np.ndarray:
    """:func:`user_keys` with the finalizer's first xor-shift applied, the
    form :func:`round_hash` and :func:`round_bits` take."""
    return _premix(user_keys(seed, user_ids))


def round_hash(premixed: np.ndarray, round_index: int) -> np.ndarray:
    """The 64-bit response hashes (a fresh uint64 array) of the users with
    :func:`premixed_keys` ``premixed`` in one round; the draw is ``h >> 11``."""
    r = int(round_index) & _MASK64
    return _finish(premixed ^ np.uint64(r ^ (r >> 30)))


def round_draws(keys: np.ndarray, round_index: int) -> np.ndarray:
    """53-bit integer draws ``k`` (uint64) of the users with ``keys`` in one
    round; the uniform draw is ``k * 2**-53``."""
    z = round_hash(_premix(keys.copy()), round_index)
    z >>= _S11
    return z


def response_limit(p: float) -> int:
    """``ceil(p * 2**53)`` for a law ``p`` in [0, 1]: a draw ``k`` from
    :func:`round_draws` is below it exactly when ``k * 2**-53 < p``, because
    ``k`` is an integer and ``p * 2**53`` is exact."""
    return math.ceil(p * _TWO_53)


def hash_limit(p: float) -> int:
    """``response_limit(p) << 11``, below which a :func:`round_hash` gives a
    draw below ``p``; law 1, whose value would be ``2**64``, gets ``2**64 - 1``
    (see the module docstring)."""
    return min(response_limit(p) << 11, _MASK64)


def round_bits(premixed: np.ndarray, round_index: int, limits, cells) -> np.ndarray:
    """Each user's response bit (a bool array) in one round: the user with
    :func:`premixed_keys` ``premixed[i]`` draws below the law whose
    :func:`hash_limit` is ``limits[cells[i]]``. ``cells`` is an index column
    into the list ``limits``, or one int for every user."""
    table = np.array(limits, dtype=np.uint64)
    bits = round_hash(premixed, round_index) < table.take(cells)
    if _MASK64 in limits:  # law 1 draws 1 whatever the hash
        bits |= (table == _MASK64).take(cells)
    return bits


def _premix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer's first xor-shift, in place."""
    z ^= z >> _S30
    return z


def _finish(z: np.ndarray) -> np.ndarray:
    """The rest of the splitmix64 finalizer after :func:`_premix`, in place."""
    z *= _MIX_A_NP
    z ^= z >> _S27
    z *= _MIX_B_NP
    z ^= z >> _S31
    return z
