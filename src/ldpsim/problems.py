"""Problem generators and ground-truth oracles.

Two search problems are provided at configurable desk scale:

* hidden layers: a rooted ``branching``-ary tree with ``num_levels`` internal
  levels (leaves are the paths of length ``num_levels``). One even and one
  odd internal level are "hidden": each vertex on a hidden level has a single
  labeled outgoing edge, and a leaf is consistent when its path follows the
  labeled edge at both hidden levels.
* pointer chasing: two vectors of pointers into each other; starting from
  the first entry of the Alice vector, alternately dereference Bob's and
  Alice's vectors and report the value reached after ``hops`` steps.

Labelings of hidden levels are lazily evaluated pure functions of
(label seed, vertex path), so no level is ever materialized.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence, TextIO

from ._rng import derive_key, substream
from .engine import Datum, Side

ENUMERATION_GUARD = 2**24


@dataclass(frozen=True)
class HLPayload:
    """One player's knowledge: a hidden level plus its lazily-keyed labeling."""

    layer: int
    branching: int
    label_key: int

    def label(self, vertex: tuple[int, ...]) -> int:
        """Labeled outgoing edge (child index) of ``vertex`` on this layer."""
        if len(vertex) != self.layer:
            raise ValueError(f"vertex {vertex} is not on layer {self.layer}")
        return derive_key(self.label_key, "label", *vertex) % self.branching


@dataclass(frozen=True)
class HLInstance:
    """A hidden layers instance.

    ``num_levels`` counts internal levels; a leaf path is a tuple of
    ``num_levels`` child indices. ``alice_layer`` is even in
    [0, num_levels-2]; ``bob_layer`` is odd in [1, num_levels-1].
    """

    branching: int
    num_levels: int
    alice_layer: int
    bob_layer: int
    label_seed: int

    def __post_init__(self):
        if self.branching < 1:
            raise ValueError("branching must be at least 1")
        if self.num_levels < 2:
            raise ValueError("num_levels must be at least 2")
        if self.alice_layer % 2 != 0 or not 0 <= self.alice_layer <= self.num_levels - 2:
            raise ValueError(f"alice_layer must be even in [0, {self.num_levels - 2}]")
        if self.bob_layer % 2 != 1 or not 1 <= self.bob_layer <= self.num_levels - 1:
            raise ValueError(f"bob_layer must be odd in [1, {self.num_levels - 1}]")

    @property
    def alice_payload(self) -> HLPayload:
        return HLPayload(self.alice_layer, self.branching, derive_key(self.label_seed, "alice"))

    @property
    def bob_payload(self) -> HLPayload:
        return HLPayload(self.bob_layer, self.branching, derive_key(self.label_seed, "bob"))

    def data_pair(self) -> tuple[Datum, Datum]:
        return (Datum(Side.ALICE, self.alice_payload), Datum(Side.BOB, self.bob_payload))


def gen_hl_instance(branching: int, num_levels: int, seed: int) -> HLInstance:
    """Random instance: hidden levels uniform over their parity classes."""
    if branching < 1 or num_levels < 2:
        raise ValueError("need branching >= 1 and num_levels >= 2")
    rng = substream(seed, "hl-instance")
    n_even = (num_levels - 2) // 2 + 1
    n_odd = num_levels // 2
    alice_layer = 2 * int(rng.integers(n_even))
    bob_layer = 1 + 2 * int(rng.integers(n_odd))
    label_seed = int(rng.integers(1 << 63))
    return HLInstance(branching, num_levels, alice_layer, bob_layer, label_seed)


def _check_leaf_path(path: Sequence[int], inst: HLInstance) -> tuple[int, ...]:
    path = tuple(int(c) for c in path)
    if len(path) != inst.num_levels:
        raise ValueError(f"leaf path must have length {inst.num_levels}, got {len(path)}")
    if any(not 0 <= c < inst.branching for c in path):
        raise ValueError("leaf path entry outside [0, branching)")
    return path


def hl_consistent(path: Sequence[int], inst: HLInstance) -> bool:
    """True iff the leaf path follows the labeled edge at both hidden levels."""
    path = _check_leaf_path(path, inst)
    alice = inst.alice_payload
    bob = inst.bob_payload
    return (
        path[inst.alice_layer] == alice.label(path[: inst.alice_layer])
        and path[inst.bob_layer] == bob.label(path[: inst.bob_layer])
    )


def hl_count_consistent(inst: HLInstance) -> int:
    """Exact consistent-leaf count by brute-force enumeration of all leaves."""
    leaves = inst.branching**inst.num_levels
    if leaves > ENUMERATION_GUARD:
        raise ValueError(f"{leaves} leaves exceed the enumeration guard {ENUMERATION_GUARD}")
    return sum(1 for path in product(range(inst.branching), repeat=inst.num_levels) if hl_consistent(path, inst))


def pointer_bits(size: int) -> int:
    """Bits needed to encode a pointer into [1, size] as (value - 1)."""
    return max(1, math.ceil(math.log2(size)))


@dataclass(frozen=True)
class PCInstance:
    """A pointer chasing instance: two pointer vectors with 1-indexed values.

    ``alice_ptrs`` and ``bob_ptrs`` have length ``size`` with entries in
    [1, size]; ``hops`` is the number of dereference steps to report.
    """

    hops: int
    size: int
    alice_ptrs: tuple[int, ...]
    bob_ptrs: tuple[int, ...]

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be at least 1")
        if self.size < 2:
            raise ValueError("size must be at least 2")
        for name, vec in (("alice_ptrs", self.alice_ptrs), ("bob_ptrs", self.bob_ptrs)):
            if len(vec) != self.size:
                raise ValueError(f"{name} must have length {self.size}")
            if any(not 1 <= v <= self.size for v in vec):
                raise ValueError(f"{name} entries must lie in [1, {self.size}]")

    def data_pair(self) -> tuple[Datum, Datum]:
        return (Datum(Side.ALICE, self.alice_ptrs), Datum(Side.BOB, self.bob_ptrs))


def gen_pc_instance(hops: int, size: int, seed: int) -> PCInstance:
    """Random instance with uniform entries; warns outside the hops << size regime."""
    if hops < 1 or size < 2:
        raise ValueError("need hops >= 1 and size >= 2")
    if hops >= size / math.log2(size):
        warnings.warn(
            f"hops={hops} is outside the recommended hops < size/log2(size) regime for size={size}",
            stacklevel=2,
        )
    rng = substream(seed, "pc-instance")
    alice = tuple(int(v) for v in rng.integers(1, size + 1, size=size))
    bob = tuple(int(v) for v in rng.integers(1, size + 1, size=size))
    return PCInstance(hops, size, alice, bob)


def chase_pointers(inst: PCInstance) -> int:
    """Ground-truth chase: v0 = alice[1]; odd steps read bob, even read alice."""
    value = inst.alice_ptrs[0]
    for step in range(1, inst.hops + 1):
        table = inst.bob_ptrs if step % 2 == 1 else inst.alice_ptrs
        value = table[value - 1]
    return value


# ---------------------------------------------------------------------------
# Predicates evaluated by users against their own datum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HLEdgePredicate:
    """Holds iff the user's hidden level is ``level`` and (vertex, child) is
    their labeled edge there."""

    level: int
    vertex: tuple[int, ...]
    child: int

    @property
    def descriptor(self) -> str:
        vertex = ".".join(map(str, self.vertex))
        return f"hl-layer-edge({self.level},{vertex},{self.child})"

    def __call__(self, datum: Datum) -> bool:
        payload = datum.payload
        if not isinstance(payload, HLPayload) or payload.layer != self.level:
            return False
        return payload.label(self.vertex) == self.child


@dataclass(frozen=True)
class PCBitPredicate:
    """Holds iff the user is on ``side`` and bit ``bit_index`` of their
    pointer at ``location`` is 1.

    Pointer values are encoded as (value - 1) in ``num_bits`` bits, big-endian;
    ``bit_index`` is 1-based from the most significant bit.
    """

    side: Side
    location: int
    bit_index: int
    num_bits: int

    @property
    def descriptor(self) -> str:
        return f"pc-bit({self.side.value},{self.location},{self.bit_index})"

    def __call__(self, datum: Datum) -> bool:
        if datum.side is not self.side or not isinstance(datum.payload, tuple):
            return False
        code = datum.payload[self.location - 1] - 1
        return (code >> (self.num_bits - self.bit_index)) & 1 == 1


def parse_predicate(descriptor: str, instance: HLInstance | PCInstance):
    """Rebuild a predicate from its descriptor, using the instance for context."""
    name, _, args = descriptor.partition("(")
    if not args.endswith(")"):
        raise ValueError(f"malformed predicate descriptor: {descriptor!r}")
    parts = args[:-1].split(",")
    if name == "hl-layer-edge" and len(parts) == 3:
        vertex = tuple(int(v) for v in parts[1].split(".")) if parts[1] else ()
        return HLEdgePredicate(level=int(parts[0]), vertex=vertex, child=int(parts[2]))
    if name == "pc-bit" and len(parts) == 3:
        if not isinstance(instance, PCInstance):
            raise ValueError("pc-bit descriptors need a pointer chasing instance")
        return PCBitPredicate(
            side=Side(parts[0]),
            location=int(parts[1]),
            bit_index=int(parts[2]),
            num_bits=pointer_bits(instance.size),
        )
    raise ValueError(f"unknown predicate descriptor: {descriptor!r}")


# ---------------------------------------------------------------------------
# Instance serialization: header line with parameters, then explicit vectors
# (pointer chasing) or nothing further (hidden layers; labelings are lazy).
# ---------------------------------------------------------------------------


def write_instance(inst: HLInstance | PCInstance, stream: TextIO) -> None:
    if isinstance(inst, HLInstance):
        stream.write(
            f"hl branching={inst.branching} num_levels={inst.num_levels} "
            f"alice_layer={inst.alice_layer} bob_layer={inst.bob_layer} "
            f"label_seed={inst.label_seed}\n"
        )
    elif isinstance(inst, PCInstance):
        stream.write(f"pc hops={inst.hops} size={inst.size} indexing=1\n")
        stream.write("alice " + " ".join(map(str, inst.alice_ptrs)) + "\n")
        stream.write("bob " + " ".join(map(str, inst.bob_ptrs)) + "\n")
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")


def _fields(lineno: int, words: Sequence[str], known: Sequence[str]) -> dict[str, str]:
    """The ``key=value`` words of one row; each key is one of ``known``, given once."""
    fields = {}
    for word in words:
        key, sep, value = word.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: field {word!r} has no '='")
        if key not in known:
            raise ValueError(f"line {lineno}: unknown field {key!r}; expected {', '.join(known)}")
        if key in fields:
            raise ValueError(f"line {lineno}: repeated field {key!r}")
        fields[key] = value
    return fields


def _field(lineno: int, fields: dict[str, str], key: str) -> str:
    if key not in fields:
        raise ValueError(f"line {lineno}: missing field {key!r}")
    return fields[key]


def _number(lineno: int, fields: dict[str, str], key: str, kind=float):
    text = _field(lineno, fields, key)
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"line {lineno}: {key}={text!r} is not {noun}") from None


def read_instance(lines: Iterable[str]) -> HLInstance | PCInstance:
    """Parse :func:`write_instance`'s text. A missing, malformed, unknown or
    repeated field, a row name unknown for the tag or given twice, or a row
    holding a value that is not an integer, raises ``ValueError`` naming its
    1-based line; a value out of range or a row of the wrong length names
    the header's line, whose fields bound every row."""
    rows = [(number, line.split()) for number, line in enumerate(lines, 1) if line.strip()]
    if not rows:
        raise ValueError("empty instance file")
    number, (tag, *words) = rows[0]
    # each tag's header fields, then the names of the rows that may follow
    schema = {
        "hl": (("branching", "num_levels", "alice_layer", "bob_layer", "label_seed"), ("consistent_count",)),
        "pc": (("hops", "size", "indexing"), ("alice", "bob", "oracle")),
    }.get(tag)
    if schema is None:
        raise ValueError(f"line {number}: unknown instance tag: {tag!r}")
    known, row_names = schema
    fields = _fields(number, words, known)
    vectors = {}
    for row_number, (name, *values) in rows[1:]:
        if name not in row_names:
            raise ValueError(f"line {row_number}: unknown row {name!r}; expected {', '.join(row_names)}")
        if name in vectors:
            raise ValueError(f"line {row_number}: a second {name!r} row")
        try:
            vectors[name] = tuple(int(v) for v in values)
        except ValueError:
            raise ValueError(f"line {row_number}: row {name!r} holds a value that is not an integer") from None

    def build(cls, **values):
        try:
            return cls(**values)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None

    if tag == "hl":
        return build(HLInstance, **{key: _number(number, fields, key, int) for key in known})
    if fields.get("indexing", "1") != "1":
        raise ValueError(f"line {number}: indexing must be 1, not {fields['indexing']!r}")
    hops, size = _number(number, fields, "hops", int), _number(number, fields, "size", int)
    for name in ("alice", "bob"):
        if name not in vectors:
            raise ValueError(f"line {number}: pc instance has no {name!r} row")
    return build(PCInstance, hops=hops, size=size, alice_ptrs=vectors["alice"], bob_ptrs=vectors["bob"])
