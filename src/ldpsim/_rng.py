"""Deterministic seed derivation and replayable per-user randomness.

Every random draw in the toolkit comes from one of two sources:

* named substreams: ``numpy`` generators keyed by a 64-bit master seed plus
  a sequence of labels (``substream(seed, "population")``), used wherever a
  stateful stream is natural (instance generation, channel simulation);
* counter-style response draws: a pure hash of
  ``(master seed, user id, round index)`` mapped to a uniform in [0, 1),
  used for user responses so that executions are replayable and the draw
  for a given user in a given round does not depend on evaluation order.

Both are built on the splitmix64 finalizer. :func:`response_uniform` is
the scalar reference for a response draw; the engine's kernel gives the same
draws from eight numpy passes a round. :func:`premixed_keys` hashes the
round-independent part, ``mix(id ^ mix(seed))``, which an execution computes
for the users a round asks and reuses while rounds ask the same users, and
:func:`round_hash` finishes the hash for one round. Two exact identities make
this cheap. A logical right shift distributes over xor, so for
``x = key ^ r`` the finalizer's first step ``x ^ (x >> 30)`` is
``(key ^ (key >> 30)) ^ (r ^ (r >> 30))``: :func:`premixed_keys` applies it
to each key as it hashes it, and a round xors in ``r ^ (r >> 30)`` as one
64-bit word. And the uniform draw is ``k * 2**-53`` with ``k = h >> 11`` of
the 64-bit hash ``h``; ``p * 2**53`` is exact, so ``k`` is below the law
``p`` exactly when ``k < L = ceil(p * 2**53)``, and for ``L < 2**53``
exactly when ``h < L << 11``: :func:`hash_limit` compares the hash before its
last shift. Law 1 is the one exception: its limit ``2**53`` would need
``2**64``, which no uint64 holds, so its hash limit is ``2**64 - 1``, the one
limit with low bits set, and :func:`round_bits` sets those users' bits itself.
"""

from __future__ import annotations

import functools
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
_S27, _S30, _S31 = map(np.uint64, (27, 30, 31))


def _mix64(z: int) -> int:
    """splitmix64 finalizer; a bijection on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _label_to_int(label) -> int:
    if isinstance(label, str):
        return _string_label(label)
    return int(label) & _MASK64


@functools.lru_cache(maxsize=1024)
def _string_label(label: str) -> int:
    """The blake2s value of a string label, computed once per label."""
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_key(seed: int, *labels) -> int:
    """Derive a 64-bit subkey from a master seed and a label path.

    Labels may be ints or strings; distinct label paths give independent-
    looking keys. Deterministic across processes and platforms.
    """
    h = _mix64((int(seed) & _MASK64) ^ _GOLDEN)
    for label in labels:
        h = _mix64(h ^ _label_to_int(label) ^ _GOLDEN)
    return h


def checked_seed(seed: int) -> int:
    """``seed``, which must lie in [0, 2**64): :func:`derive_key` reads a
    seed modulo 2**64, so a seed outside would name the same experiment as
    the seed it equals there."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return seed


def substream(seed: int, *labels) -> np.random.Generator:
    """A fresh numpy generator for the given (seed, label path); ``seed``
    must lie in [0, 2**64)."""
    return np.random.default_rng(derive_key(checked_seed(seed), *labels))


def response_uniform(seed: int, user_id: int, round_index: int) -> float:
    """Uniform [0, 1) draw for one user's response in one round.

    Pure function of its arguments: the scalar reference that the kernel
    (:func:`premixed_keys`, :func:`round_hash`, :func:`round_bits`) agrees
    with bit for bit.
    """
    h = _mix64((int(seed) & _MASK64) ^ _GOLDEN)
    h = _mix64(h ^ (int(user_id) & _MASK64))
    h = _mix64(h ^ (int(round_index) & _MASK64))
    return (h >> 11) * _INV_2_53


def premixed_keys(seed: int, user_ids: np.ndarray) -> np.ndarray:
    """The round-independent part of each user's response hash (uint64),
    with the finalizer's first xor-shift applied: the form :func:`round_hash`
    and :func:`round_bits` take."""
    base = np.uint64(_mix64((int(seed) & _MASK64) ^ _GOLDEN))
    return _premix(_finish(_premix(np.asarray(user_ids, dtype=np.uint64) ^ base)))


def round_hash(premixed: np.ndarray, round_index: int) -> np.ndarray:
    """The 64-bit response hashes (a fresh uint64 array) of the users with
    :func:`premixed_keys` ``premixed`` in one round; the draw is ``h >> 11``."""
    r = int(round_index) & _MASK64
    return _finish(premixed ^ np.uint64(r ^ (r >> 30)))


def hash_limit(p: float) -> int:
    """``ceil(p * 2**53) << 11`` for a law ``p`` in [0, 1], below which a
    :func:`round_hash` gives a draw below ``p``; law 1, whose value would be
    ``2**64``, gets ``2**64 - 1`` (see the module docstring)."""
    return min(math.ceil(p * _TWO_53) << 11, _MASK64)


def round_bits(premixed: np.ndarray, round_index: int, limits, cells) -> np.ndarray:
    """Each user's response bit (a bool array) in one round: the user with
    :func:`premixed_keys` ``premixed[i]`` draws below the law whose
    :func:`hash_limit` is ``limits[cells[i]]``. ``cells`` is an index column
    into the list ``limits``, or one int for every user, whose one limit is
    compared as a scalar."""
    if isinstance(cells, int):
        limit = limits[cells]
        bits = round_hash(premixed, round_index) < np.uint64(limit)
        if limit == _MASK64:  # law 1 draws 1 whatever the hash
            bits.fill(True)
        return bits
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
