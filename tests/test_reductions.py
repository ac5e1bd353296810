import math
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldpsim._rng import substream
from ldpsim.channels import ChannelSpec, lift_channel, lower_crossover
from ldpsim.engine import (
    SENTINEL_DATUM,
    CountDriver,
    Datum,
    Halt,
    InteractivityMode,
    RoundSpec,
    Side,
    execute,
    sample_population,
)
from ldpsim.harness import ExperimentConfig, HLShape, PCShape, build_trial
from ldpsim.randomizers import LawQuery, audit_transcript, rr_param
from ldpsim.randomizers import _by_side_query as law_query
from ldpsim.reductions import (
    TABLE_STEP_CACHE,
    AlternatingProtocol,
    Answer,
    LoweredProtocol,
    OneBitSequence,
    ReductionError,
    SendStep,
    SimultaneousProtocol,
    TableProtocol,
    TranscriptDistribution,
    TwoPartyProtocol,
    _check_prob,
    alternating_pairs_distribution,
    enumerate_onebit_distribution,
    enumerate_transcript_distribution,
    fixed_onebit,
    lift_two_party_to_ldp,
    lower_multi_to_two_party,
    one_bit_view,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def one_bit_protocol(sender: Side, f, channel) -> TableProtocol:
    return TableProtocol(
        num_bits=1,
        sender_fn=lambda prefix: sender,
        param_fn=lambda inp, prefix: float(f(inp)),
        channel=channel,
    )


PAIR = (Datum(Side.ALICE, "x"), Datum(Side.BOB, "y"))


# ---------------------------------------------------------------------------
# reference enumerators: one branch per coin outcome, summed at the leaves
# ---------------------------------------------------------------------------


def reference_two_party(protocol, alice_input, bob_input) -> dict[str, float]:
    """Path-by-path enumeration over the step lottery, the sent bit, the
    channel flip and the keep/skip coin; paths ending in the same transcript
    are summed at the leaf. A leaf can gather hundreds of paths, so they are
    summed with ``math.fsum``: a running sum drifts by about 1e-14 there."""
    paths: dict[str, list[float]] = {}
    crossover = protocol.channel.crossover
    noisy = crossover > 0.0

    def recurse(prefix, prob):
        act = protocol.action(prefix)
        if isinstance(act, Answer):
            paths.setdefault("".join(map(str, prefix)), []).append(prob)
            return
        for branch_prob, step in act:
            inp = alice_input if step.sender is Side.ALICE else bob_input
            p_send = _check_prob(float(step.send_param(inp)), "reference")
            for sent, p_s in ((1, p_send), (0, 1.0 - p_send)):
                received_branches = ((sent, 1.0 - crossover), (1 - sent, crossover)) if noisy else ((sent, 1.0),)
                for received, p_r in received_branches:
                    if step.use_prob < 1.0:
                        entered_branches = ((received, step.use_prob), (step.skip_bit, 1.0 - step.use_prob))
                    else:
                        entered_branches = ((received, 1.0),)
                    for entered, p_e in entered_branches:
                        weight = prob * branch_prob * p_s * p_r * p_e
                        if weight != 0.0:
                            recurse(prefix + (entered,), weight)

    recurse((), 1.0)
    return {key: math.fsum(weights) for key, weights in paths.items()}


def reference_bit_tree(is_leaf, p_one) -> dict[str, float]:
    """Enumeration of a protocol publishing one bit per step, 1 with
    probability ``p_one(prefix)``."""
    probs: dict[str, float] = {}

    def recurse(prefix, prob):
        if is_leaf(prefix):
            probs["".join(map(str, prefix))] = prob
            return
        p = p_one(prefix)
        for bit, p_b in ((1, p), (0, 1.0 - p)):
            if p_b != 0.0:
                recurse(prefix + (bit,), prob * p_b)

    recurse((), 1.0)
    return probs


def reference_onebit(protocol) -> dict[str, float]:
    def p_one(prefix):
        query = protocol.step_fn(prefix)
        return sum(0.5 * _check_prob(float(query.law(datum)), "reference") for datum in protocol.data_pair)

    return reference_bit_tree(lambda prefix: isinstance(protocol.step_fn(prefix), Answer), p_one)


def reference_simultaneous(protocol, x, y) -> dict[str, float]:
    probs: dict[str, float] = {}

    def recurse(pairs, prob):
        if len(pairs) == protocol.num_rounds:
            probs["".join(f"{a}{b}" for a, b in pairs)] = prob
            return
        p_a = float(protocol.alice_param(x, pairs))
        p_b = float(protocol.bob_param(y, pairs))
        for a_bit, pa in ((1, p_a), (0, 1.0 - p_a)):
            for b_bit, pb in ((1, p_b), (0, 1.0 - p_b)):
                if pa != 0.0 and pb != 0.0:
                    recurse(pairs + ((a_bit, b_bit),), prob * pa * pb)

    recurse((), 1.0)
    return probs


def reference_alternating(protocol, x, y) -> dict[str, float]:
    def p_one(prefix):
        speaker, t = protocol.positions[len(prefix)]
        pairs = protocol.pairs_from(prefix, upto=t)
        if speaker is Side.ALICE:
            return float(protocol.source.alice_param(x, pairs))
        return float(protocol.source.bob_param(y, pairs))

    return reference_bit_tree(lambda prefix: len(prefix) == len(protocol.positions), p_one)


def simulate_two_party(protocol, alice_input, bob_input, seed):
    """Monte Carlo run of one execution, drawing every coin the enumerator
    sums over; returns (entered transcript, answer)."""
    rng = substream(seed, "two-party")
    prefix = ()
    for _ in range(protocol.max_bits + 1):
        act = protocol.action(prefix)
        if isinstance(act, Answer):
            return prefix, act.fn(prefix)
        draw = rng.random()
        acc = 0.0
        step = act[-1][1]
        for branch_prob, candidate in act:
            acc += branch_prob
            if draw < acc:
                step = candidate
                break
        inp = alice_input if step.sender is Side.ALICE else bob_input
        sent = int(rng.random() < _check_prob(float(step.send_param(inp)), "simulation"))
        received = sent ^ int(rng.random() < protocol.channel.crossover)
        entered = received if step.use_prob >= 1.0 or rng.random() < step.use_prob else step.skip_bit
        prefix = prefix + (entered,)
    raise AssertionError("two-party protocol did not halt within max_bits")


# ---------------------------------------------------------------------------
# enumeration plumbing
# ---------------------------------------------------------------------------


def test_enumerate_deterministic_noiseless_protocol_is_point_mass():
    protocol = TableProtocol(
        num_bits=2,
        sender_fn=lambda prefix: Side.ALICE if len(prefix) == 0 else Side.BOB,
        param_fn=lambda inp, prefix: float(inp),
        channel=ChannelSpec(),
    )
    dist = enumerate_transcript_distribution(protocol, 1, 0)
    assert dist.probs == {"10": 1.0}


def test_enumerate_single_rr_bit():
    # one user voting 1 at budget ln 3 publishes 1 with probability 3/4
    query = law_query(LN3, "rr", rr_param(1, LN3), rr_param(1, LN3))
    protocol = fixed_onebit(LN3, PAIR, [query])
    dist = enumerate_onebit_distribution(protocol)
    assert dist["1"] == pytest.approx(0.75, abs=1e-12)
    assert dist["0"] == pytest.approx(0.25, abs=1e-12)


def test_distribution_sums_to_one_and_guards():
    with pytest.raises(ValueError):
        TranscriptDistribution({"0": 0.4, "1": 0.4})
    dist = TranscriptDistribution({"0": 0.5, "1": 0.5})
    assert math.fsum(dist.probs.values()) == pytest.approx(1.0, abs=1e-12)


def _reference_tv(a: TranscriptDistribution, b: TranscriptDistribution) -> float:
    """Total variation over the set union of both supports, reading each
    side through ``__getitem__``."""
    keys = set(a.probs) | set(b.probs)
    return 0.5 * math.fsum(abs(a[k] - b[k]) for k in keys)


_TV_KEYS = ("", "0", "1", "00", "01", "10", "11", "010", "111")


@st.composite
def _distribution_pairs(draw):
    """Two distributions whose supports overlap, are disjoint or are equal;
    the empty transcript key is one of the keys drawn."""
    keys = st.sampled_from(_TV_KEYS)
    support_a = draw(st.lists(keys, min_size=1, max_size=len(_TV_KEYS) - 1, unique=True))
    relation = draw(st.sampled_from(("overlapping", "disjoint", "equal")))
    if relation == "equal":
        support_b = draw(st.permutations(support_a))
    elif relation == "disjoint":
        rest = [key for key in _TV_KEYS if key not in support_a]
        support_b = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=len(rest), unique=True))
    else:
        support_b = [support_a[0], *draw(st.lists(keys.filter(lambda key: key != support_a[0]), unique=True))]

    def distribution(support):
        weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(support), max_size=len(support)))
        total = math.fsum(weights)
        return TranscriptDistribution({key: weight / total for key, weight in zip(support, weights)})

    return distribution(support_a), distribution(support_b)


@settings(max_examples=300)
@given(_distribution_pairs())
def test_tv_distance_matches_the_set_union_formula(pair):
    a, b = pair
    assert a.tv_distance(b) == _reference_tv(a, b)
    assert a.tv_distance(b) == b.tv_distance(a)
    assert a.tv_distance(a) == 0.0 and b.tv_distance(b) == 0.0


def test_distribution_serialize_round_trip():
    import io

    dist = TranscriptDistribution({"01": 0.7, "": 0.3})
    buffer = io.StringIO()
    dist.serialize(buffer)
    # sorted keys, "-" for the empty transcript, and repr probabilities that read back exactly
    assert buffer.getvalue() == "- 0.3\n01 0.7\n"
    rows = (line.split() for line in buffer.getvalue().splitlines())
    parsed = TranscriptDistribution({("" if key == "-" else key): float(prob) for key, prob in rows})
    assert parsed.probs == dist.probs and dist.tv_distance(parsed) == 0.0


@pytest.mark.parametrize("depth", [0, 1, 3, 6])
def test_max_paths_bounds_visited_prefixes(depth, monkeypatch):
    # a fair noiseless bit per step: the full binary tree of 2^(d+1) - 1 prefixes
    protocol = TableProtocol(
        num_bits=depth,
        sender_fn=lambda prefix: Side.ALICE,
        param_fn=lambda inp, prefix: 0.5,
        channel=ChannelSpec(),
    )
    prefixes = 2 ** (depth + 1) - 1
    monkeypatch.setattr("ldpsim.reductions.ENUMERATION_GUARD", prefixes)
    dist = enumerate_transcript_distribution(protocol, 0, 0)
    assert len(dist.probs) == 2**depth
    monkeypatch.setattr("ldpsim.reductions.ENUMERATION_GUARD", prefixes - 1)
    with pytest.raises(ValueError, match=f"exceeds {prefixes - 1} prefixes"):
        enumerate_transcript_distribution(protocol, 0, 0)


def test_lowered_protocol_visits_one_prefix_per_transcript_prefix(monkeypatch):
    # lottery, sent bit, flip and keep/skip branches entering one bit are merged
    queries = [law_query(LN3, f"q{i}", 0.75, 0.25) for i in range(3)]
    lowered = LoweredProtocol(fixed_onebit(LN3, PAIR, queries), LN3)
    monkeypatch.setattr("ldpsim.reductions.ENUMERATION_GUARD", 2**4 - 1)
    dist = enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1])
    assert len(dist.probs) == 8


def test_enumeration_path_guard(monkeypatch):
    protocol = TableProtocol(
        num_bits=30,
        sender_fn=lambda prefix: Side.ALICE,
        param_fn=lambda inp, prefix: 0.5,
        channel=ChannelSpec(),
    )
    monkeypatch.setattr("ldpsim.reductions.ENUMERATION_GUARD", 1000)
    with pytest.raises(ValueError, match="exceeds 1000 prefixes"):
        enumerate_transcript_distribution(protocol, 0, 0)


def test_deep_onebit_protocol_enumerates():
    # far deeper than Python's recursion limit; only the prefix guard bounds the walk
    queries = [LawQuery(LN3, "always-1", lambda datum: 1.0)] * 1200
    assert enumerate_onebit_distribution(fixed_onebit(LN3, PAIR, queries)).probs == {"1" * 1200: 1.0}


def _constant_send(p: float) -> TableProtocol:
    return TableProtocol(num_bits=1, sender_fn=lambda prefix: Side.ALICE, param_fn=lambda inp, prefix: p, channel=ChannelSpec(0.25))


@pytest.mark.parametrize("slack, exact", [(1.0 + 5e-10, 1.0), (-5e-10, 0.0)])
def test_send_probability_within_slack_enumerates_as_its_bound(slack, exact):
    dist = enumerate_transcript_distribution(_constant_send(slack), 0, 0)
    assert dist.probs == enumerate_transcript_distribution(_constant_send(exact), 0, 0).probs


def test_send_probability_outside_unit_interval_names_the_step():
    with pytest.raises(ReductionError, match=re.escape("step 0: probability 1.5 outside [0, 1]")):
        enumerate_transcript_distribution(_constant_send(1.5), 0, 0)


def test_onebit_law_outside_unit_interval_names_the_bit():
    class BareQuery:  # LawQuery would reject this law itself
        def law(self, datum):
            return 1.5

    protocol = fixed_onebit(LN3, PAIR, [LawQuery(LN3, "half", lambda datum: 0.5), BareQuery()])
    with pytest.raises(ReductionError, match=re.escape("law at bit 1: probability 1.5 outside [0, 1]")):
        enumerate_onebit_distribution(protocol)


def test_table_protocol_asks_its_sender_once_per_prefix():
    asked = Counter()

    def sender_fn(prefix):
        asked[prefix] += 1
        return (Side.ALICE, Side.BOB)[len(prefix) % 2]

    protocol = TableProtocol(
        num_bits=3, sender_fn=sender_fn, param_fn=lambda inp, prefix: float(inp), channel=lift_channel(LN3)
    )
    for x, y in product((0, 1), repeat=2):
        enumerate_transcript_distribution(protocol, x, y)
        enumerate_onebit_distribution(lift_two_party_to_ldp(protocol, LN3, (Datum(Side.ALICE, x), Datum(Side.BOB, y))))
    assert asked == {prefix: 1 for t in range(3) for prefix in product((0, 1), repeat=t)}


def test_table_protocol_keeps_at_most_the_cache_bound_of_steps():
    # a fair 16-bit table has 65,535 prefixes, 16 times the bound
    protocol = TableProtocol(
        num_bits=16,
        sender_fn=lambda prefix: (Side.ALICE, Side.BOB)[len(prefix) % 2],
        param_fn=lambda inp, prefix: 0.5,
        channel=ChannelSpec(),
    )
    assert 2**16 - 1 > TABLE_STEP_CACHE
    for _ in range(2):  # the second walk reads the kept steps and builds the rest again
        probs = enumerate_transcript_distribution(protocol, 0, 1).probs
        assert len(protocol._steps) == TABLE_STEP_CACHE
        assert len(probs) == 2**16 and set(probs.values()) == {2.0**-16}


def test_table_protocol_keeps_no_step_when_its_sender_raises():
    asked = []

    def sender_fn(prefix):
        asked.append(prefix)
        raise ValueError("no sender")

    protocol = TableProtocol(num_bits=1, sender_fn=sender_fn, param_fn=lambda inp, prefix: 0.0, channel=ChannelSpec())
    for _ in range(2):
        with pytest.raises(ValueError, match="no sender"):
            enumerate_transcript_distribution(protocol, 0, 0)
    assert asked == [(), ()]


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


def test_lift_requires_matching_channel():
    # a noiseless channel has advantage 1/2, which no budget lifts to
    for channel in (ChannelSpec(0.25), ChannelSpec()):
        protocol = one_bit_protocol(Side.ALICE, lambda x: x, channel)
        with pytest.raises(ValueError, match="advantage"):
            lift_two_party_to_ldp(protocol, LN3, PAIR)


def test_lift_single_bit_marginal():
    # the simulated first bit equals the sent bit with probability 1/2 + adv
    epsilon = LN3
    protocol = one_bit_protocol(Side.ALICE, lambda x: x, lift_channel(epsilon))
    lifted = lift_two_party_to_ldp(protocol, epsilon, (Datum(Side.ALICE, 1), Datum(Side.BOB, 0)))
    dist = enumerate_onebit_distribution(lifted)
    # 1/2 * 3/4 + 1/2 * 1/2 = 5/8
    assert dist["1"] == pytest.approx(5.0 / 8.0, abs=1e-12)
    two_party = enumerate_transcript_distribution(protocol, 1, 0)
    assert two_party["1"] == pytest.approx(0.5 + 1.0 / 8.0, abs=1e-12)
    assert dist.tv_distance(two_party) <= 1e-12


def test_lift_exhaustive_two_bit_protocols():
    # every deterministic 2-bit protocol over 1-bit inputs, all input pairs
    functions = ((0, 0), (1, 1), (0, 1), (1, 0))
    options = [(side, f) for side in (Side.ALICE, Side.BOB) for f in functions]
    nodes = [(), (0,), (1,)]
    worst = 0.0
    for epsilon in (LN2, LN3):
        channel = lift_channel(epsilon)
        for combo in product(options, repeat=3):
            table = dict(zip(nodes, combo))
            protocol = TableProtocol(
                num_bits=2,
                sender_fn=lambda prefix, t=table: t[prefix][0],
                param_fn=lambda inp, prefix, t=table: float(t[prefix][1][inp]),
                channel=channel,
            )
            for x, y in product((0, 1), repeat=2):
                pair = (Datum(Side.ALICE, x), Datum(Side.BOB, y))
                lifted = lift_two_party_to_ldp(protocol, epsilon, pair)
                tv = enumerate_transcript_distribution(protocol, x, y).tv_distance(
                    enumerate_onebit_distribution(lifted)
                )
                worst = max(worst, tv)
    assert worst <= 1e-12


def test_lift_rejects_randomized_next_bit():
    protocol = TableProtocol(
        num_bits=1,
        sender_fn=lambda prefix: Side.ALICE,
        param_fn=lambda inp, prefix: 0.3,
        channel=lift_channel(1.0),
    )
    lifted = lift_two_party_to_ldp(protocol, 1.0, PAIR)
    with pytest.raises(ValueError, match="deterministic"):
        enumerate_onebit_distribution(lifted)


class _OneStep(TwoPartyProtocol):
    """A one-bit protocol over the lift's channel at ln 3 whose first action is ``act``."""

    channel = lift_channel(LN3)
    max_bits = 1

    def __init__(self, act):
        self.act = act

    def action(self, prefix):
        return Answer(tuple) if prefix else self.act


def _lift_of(act):
    return enumerate_onebit_distribution(lift_two_party_to_ldp(_OneStep(act), LN3, PAIR))


_ALICE_SENDS_X = SendStep(Side.ALICE, float)
_REFUSED_CONVERSIONS = {
    "negative-bits": (
        lambda: TableProtocol(-1, lambda prefix: Side.ALICE, lambda inp, prefix: 0.0, ChannelSpec()),
        "num_bits must be nonnegative",
    ),
    "lift-lottery": (
        lambda: _lift_of(((0.5, _ALICE_SENDS_X), (0.5, _ALICE_SENDS_X))),
        "lift requires protocols without public step lotteries",
    ),
    "lift-skips": (
        lambda: _lift_of(((1.0, SendStep(Side.ALICE, float, use_prob=0.5)),)),
        "lift requires protocols that enter every received bit",
    ),
    "no-rounds": (
        lambda: SimultaneousProtocol(0, lambda inp, pairs: 0.5, lambda inp, pairs: 0.5),
        "num_rounds must be at least 1",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_CONVERSIONS))
def test_conversions_refuse_what_they_cannot_take(case):
    build, message = _REFUSED_CONVERSIONS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("epsilon", [LN3, 1.0])
def test_lifted_query_contract(epsilon):
    # a 2-bit table: the root's sender sends their input, each later sender their input XOR the bit before
    senders = {(): Side.ALICE, (0,): Side.BOB, (1,): Side.ALICE}

    def next_bit(inp, prefix):
        return inp ^ (prefix[-1] if prefix else 0)

    protocol = TableProtocol(
        num_bits=2,
        sender_fn=lambda prefix: senders[prefix],
        param_fn=lambda inp, prefix: float(next_bit(inp, prefix)),
        channel=lift_channel(epsilon),
    )
    lifted = lift_two_party_to_ldp(protocol, epsilon, (Datum(Side.ALICE, 1), Datum(Side.BOB, 0)))
    audited = (Datum(Side.ALICE, 1), Datum(Side.BOB, 0), SENTINEL_DATUM)
    queries = {}
    for prefix, sender in senders.items():
        query = queries[prefix] = lifted.step_fn(prefix)
        assert isinstance(query, LawQuery) and query.epsilon == epsilon
        for payload in (0, 1):
            assert query.law(Datum(sender, payload)) == rr_param(next_bit(payload, prefix), epsilon)
            assert query.law(Datum(sender.other, payload)) == 0.5
        assert query.law(SENTINEL_DATUM) == 0.5
        assert query.descriptor == f"lift-bit({len(prefix)},{sender.value},{''.join(map(str, prefix)) or '-'})"
        assert query == query and hash(query) == hash(query)
        assert query.descriptor in repr(query)

        def reference_law(datum, sender=sender, prefix=prefix):
            if datum.side is sender and datum.payload is not None:
                return rr_param(next_bit(datum.payload, prefix), epsilon)
            return 0.5

        reference = LawQuery(epsilon, "reference", reference_law)
        assert query.audit_rows(audited).tolist() == reference.audit_rows(audited).tolist()
        assert query.max_log_ratio(audited[0], audited[1]) == reference.max_log_ratio(audited[0], audited[1])
    assert len({queries[()], queries[(0,)], queries[(1,)]}) == 3
    assert queries[(0,)] != queries[(1,)] and queries[()] != queries[(0,)]

    randomized = TableProtocol(
        num_bits=2,
        sender_fn=lambda prefix: senders[prefix],
        param_fn=lambda inp, prefix: 0.3,
        channel=lift_channel(epsilon),
    )
    query = lift_two_party_to_ldp(randomized, epsilon, PAIR).step_fn((1,))
    with pytest.raises(ValueError, match="^lift requires deterministic next-bit functions$"):
        query.law(Datum(Side.ALICE, 0))
    assert query.law(Datum(Side.BOB, 0)) == 0.5


def test_lifted_driver_is_sequential_and_private():
    epsilon = LN3
    protocol = TableProtocol(
        num_bits=3,
        sender_fn=lambda prefix: Side.ALICE if len(prefix) % 2 == 0 else Side.BOB,
        param_fn=lambda inp, prefix: float(inp),
        channel=lift_channel(epsilon),
    )
    pair = (Datum(Side.ALICE, 1), Datum(Side.BOB, 0))
    lifted = lift_two_party_to_ldp(protocol, epsilon, pair)
    population = sample_population(3, pair[0].payload, pair[1].payload, seed=5)
    result = execute(lifted, population, InteractivityMode.SEQUENTIAL, seed=6)
    assert len(result.transcript.rounds) == 3
    report = audit_transcript(result.transcript, population, result.query_log)
    assert report.max_ratio() <= epsilon + 1e-9


def test_lifted_driver_prefix_is_python_ints():
    protocol = TableProtocol(
        num_bits=3,
        sender_fn=lambda prefix: Side.ALICE if len(prefix) % 2 == 0 else Side.BOB,
        param_fn=lambda inp, prefix: float(inp),
        channel=lift_channel(LN3),
    )
    pair = (Datum(Side.ALICE, 1), Datum(Side.BOB, 0))
    lifted = lift_two_party_to_ldp(protocol, LN3, pair)
    population = sample_population(3, pair[0].payload, pair[1].payload, seed=5)
    result = execute(lifted, population, InteractivityMode.SEQUENTIAL, seed=6)
    # the table protocol answers with its transcript, i.e. the driver's prefix
    assert isinstance(result.answer, tuple) and len(result.answer) == 3
    assert all(type(bit) is int for bit in result.answer)


# ---------------------------------------------------------------------------
# lower
# ---------------------------------------------------------------------------


def test_lower_randomized_response_boundary():
    # randomized-response laws sum to 1: the high-vote holder sends 1 with
    # probability 1 and the received bit is 1 with probability p_x
    epsilon = LN3
    p_high, p_low = rr_param(1, epsilon), rr_param(0, epsilon)
    source = fixed_onebit(epsilon, PAIR, [law_query(epsilon, "rr", p_high, p_low)])
    lowered = LoweredProtocol(source, epsilon)
    steps = lowered.action(())
    assert not isinstance(steps, Answer)
    step = steps[0][1]
    assert step.send_param(PAIR[0]) == pytest.approx(1.0, abs=1e-9)
    assert step.send_param(PAIR[1]) == pytest.approx(0.0, abs=1e-9)
    dist = enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1])
    assert dist["1"] == pytest.approx(0.5 * p_high + 0.5 * p_low, abs=1e-12)


def test_lower_constant_law_enters_exact_probability():
    for c in (0.3, 0.7):
        source = fixed_onebit(1.0, PAIR, [law_query(1.0, "const", c, c)])
        lowered = LoweredProtocol(source, 1.0)
        dist = enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1])
        assert dist["1"] == pytest.approx(c, abs=1e-12)
        assert lowered.cases_used == ({"case1"} if c <= 0.5 else {"case2"})


def test_lower_constant_zero_and_one_laws():
    for c, key in ((0.0, "0"), (1.0, "1")):
        source = fixed_onebit(1.0, PAIR, [law_query(1.0, "const", c, c)])
        lowered = LoweredProtocol(source, 1.0)
        dist = enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1])
        assert dist[key] == pytest.approx(1.0, abs=1e-12)


def test_lower_adaptive_two_user_equivalence():
    # user 2's law depends on user 1's published bit
    epsilon = LN2
    q1 = law_query(epsilon, "q1", rr_param(1, epsilon), rr_param(0, epsilon))
    q_zero = law_query(epsilon, "q20", 0.7, 0.7)
    q_one = law_query(epsilon, "q21", rr_param(0, epsilon), rr_param(1, epsilon))

    def step_fn(prefix):
        if len(prefix) == 0:
            return q1
        if len(prefix) == 1:
            return q_zero if prefix[0] == 0 else q_one
        return Answer(lambda transcript: transcript)

    source = OneBitSequence(epsilon=epsilon, data_pair=PAIR, step_fn=step_fn, max_users=2)
    lowered = LoweredProtocol(source, epsilon)
    tv = enumerate_onebit_distribution(source).tv_distance(
        enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1])
    )
    assert tv <= 1e-12
    assert lowered.cases_used == {"case1", "case2"}


def test_lower_at_a_budget_whose_channel_is_noiseless():
    # from about eps = 37 the lowering's flip probability rounds to 0, so the
    # enumerator takes its noiseless keep/skip path, here in both cases
    epsilon = 40.0
    queries = [law_query(epsilon, "low", 0.3, 0.6), law_query(epsilon, "high", 0.7, 0.8)]
    source = fixed_onebit(epsilon, PAIR, queries)
    lowered = LoweredProtocol(source, epsilon)
    assert lowered.channel.crossover == 0.0
    tv = enumerate_onebit_distribution(source).tv_distance(
        enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1])
    )
    assert tv <= 1e-12
    assert lowered.cases_used == {"case1", "case2"}


def test_lower_rejects_laws_violating_privacy_bound():
    # ratio 0.9/0.1 = 9 > e^1, so the construction must refuse
    source = fixed_onebit(1.0, PAIR, [law_query(1.0, "bad", 0.9, 0.1)])
    lowered = LoweredProtocol(source, 1.0)
    with pytest.raises(ReductionError, match="outside"):
        enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1])


@settings(max_examples=300)
@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_lower_send_probability_valid_under_ratio_bound(epsilon, p_a, p_b, mix):
    # any pair of laws within the e^eps likelihood bounds yields a valid
    # send probability for every holder
    bound = math.exp(epsilon)
    lo, hi = min(p_a, p_b), max(p_a, p_b)
    assume(hi / lo <= bound and (1 - lo) / (1 - hi) <= bound)
    source = fixed_onebit(epsilon, PAIR, [law_query(epsilon, "hyp", p_a, p_b)])
    lowered = LoweredProtocol(source, epsilon)
    steps = lowered.action(())
    holder = PAIR[0] if mix < 0.5 else PAIR[1]
    value = steps[0][1].send_param(holder)
    assert 0.0 <= value <= 1.0


def test_lower_entered_bit_identity_random_grid():
    # entered-bit probability equals the source law for every valid law pair
    rng_values = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
    epsilon = 3.0
    bound = math.exp(epsilon)
    for p_a in rng_values:
        for p_b in rng_values:
            lo, hi = min(p_a, p_b), max(p_a, p_b)
            if hi / lo > bound or (1 - lo) / (1 - hi) > bound:
                continue
            source = fixed_onebit(epsilon, PAIR, [law_query(epsilon, "grid", p_a, p_b)])
            lowered = LoweredProtocol(source, epsilon)
            dist = enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1])
            assert dist["1"] == pytest.approx(0.5 * (p_a + p_b), abs=1e-12)


def test_lower_channel_advantage():
    source = fixed_onebit(1.0, PAIR, [law_query(1.0, "c", 0.5, 0.5)])
    lowered = LoweredProtocol(source, 1.0)
    assert lowered.channel.advantage == pytest.approx(lower_crossover(1.0), abs=1e-15)


def test_conversion_names_are_their_classes():
    assert lower_multi_to_two_party is LoweredProtocol


def test_lowered_protocol_is_as_long_as_its_source():
    queries = [law_query(1.0, f"q{i}", 0.5, 0.5) for i in range(3)]
    lowered = LoweredProtocol(fixed_onebit(1.0, PAIR, queries), 1.0)
    assert lowered.max_bits == 3
    assert {len(key) for key in enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1]).probs} == {3}


def test_lowering_a_source_that_runs_past_max_users_fails():
    # a source that never halts must not be cut short into a shorter distribution
    query = law_query(0.5, "forever", 0.5, 0.5)
    source = OneBitSequence(0.5, PAIR, lambda prefix: query, max_users=2)
    lowered = LoweredProtocol(source, 0.5)
    with pytest.raises(ReductionError, match="exceeded its own max_bits without halting"):
        enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1])
    with pytest.raises(ReductionError, match="exceeded max_users without halting"):
        enumerate_onebit_distribution(source)


def test_simulate_two_party_matches_enumeration_roughly():
    epsilon = LN3
    source = fixed_onebit(epsilon, PAIR, [law_query(epsilon, "sim", 0.75, 0.25)])
    lowered = LoweredProtocol(source, epsilon)
    ones = sum(
        simulate_two_party(lowered, PAIR[0], PAIR[1], seed=seed)[0][0] for seed in range(4000)
    )
    assert abs(ones / 4000 - 0.5) < 0.03  # 3 sigma ~ 0.024


def test_lower_applies_to_pointer_chasing_solver():
    # the sequential solver is natively one bit per user, so lowering it
    # preserves the transcript distribution exactly
    from ldpsim.problems import gen_pc_instance
    from ldpsim.solvers import PCSolverConfig, PCSolverDriver

    inst = gen_pc_instance(1, 2, seed=31)
    driver = PCSolverDriver(inst.hops, inst.size, PCSolverConfig(epsilon=LN2, m=2))
    source = one_bit_view(driver, LN2, inst.data_pair())
    lowered = LoweredProtocol(source, LN2)
    alice, bob = inst.data_pair()
    tv = enumerate_onebit_distribution(source).tv_distance(
        enumerate_transcript_distribution(lowered, alice, bob)
    )
    assert tv <= 1e-12


# ---------------------------------------------------------------------------
# one-bit views of count drivers
# ---------------------------------------------------------------------------


def _tiny_trial(solver, shape, group_size, seed):
    cfg = ExperimentConfig(shape, solver, LN3, trials=1, seed=seed, group_size=group_size)
    return build_trial(cfg, seed)


def test_one_bit_view_refuses_the_fully_interactive_walk():
    trial = _tiny_trial("hl-full", HLShape(2, 2), 2, seed=5)
    view = one_bit_view(trial.driver, LN3, (trial.population.alice_datum, trial.population.bob_datum))
    assert view.step_fn((0,)).descriptor == view.step_fn((1,)).descriptor
    # the walk's second round asks users 0 and 1 again instead of the fresh users 2 and 3
    with pytest.raises(ReductionError, match="the round at bit 2 asks user 0, not the fresh user 2"):
        view.step_fn((0, 1))
    with pytest.raises(ReductionError, match="asks user 0"):
        enumerate_onebit_distribution(view)


@pytest.mark.parametrize(
    "solver, shape, group_size",
    [("pc", (1, 4), 2), ("pc", (2, 5), 1), ("hl-baseline", (2, 3), 2), ("hl-baseline", (3, 2), 1)],
)
def test_one_bit_view_walked_along_an_execution_gives_its_transcript(solver, shape, group_size):
    problem = PCShape(*shape) if solver == "pc" else HLShape(*shape)
    for seed in range(5):
        trial = _tiny_trial(solver, problem, group_size, seed)
        result = trial.execute()
        rounds = result.transcript.rounds
        users = [int(user) for record in rounds for user in record.users]
        bits = tuple(int(bit) for record in rounds for bit in record.outputs)
        descriptors = [name for record in rounds for name in record.randomizer_ids]
        assert users == list(range(len(users)))
        view = one_bit_view(trial.driver, LN3, (trial.population.alice_datum, trial.population.bob_datum))
        assert [view.step_fn(bits[:user]).descriptor for user in users] == descriptors
        answer = view.step_fn(bits)
        assert isinstance(answer, Answer) and answer.fn(bits) == result.answer


def test_one_bit_view_runs_on_the_engine():
    from ldpsim.problems import gen_pc_instance
    from ldpsim.solvers import PCSolverConfig, PCSolverDriver

    m = 2
    inst = gen_pc_instance(1, 4, seed=7)
    driver = PCSolverDriver(inst.hops, inst.size, PCSolverConfig(epsilon=LN3, m=m))
    view = one_bit_view(driver, LN3, inst.data_pair())
    alice, bob = inst.data_pair()
    for seed in range(5):
        population = sample_population(view.max_users, alice.payload, bob.payload, seed=seed)
        result = execute(view, population, InteractivityMode.SEQUENTIAL, seed=seed + 20)
        bits = [int(record.outputs[0]) for record in result.transcript.rounds]
        assert [int(record.users[0]) for record in result.transcript.rounds] == list(range(len(bits)))
        state = driver.start()
        for start in range(0, len(bits), m):
            state = driver.advance(state, sum(bits[start : start + m]), m)
        halt = driver.decide(state)
        assert isinstance(halt, Halt) and result.answer == halt.answer


class _TwoUsersPerRound(CountDriver):
    """Two rounds, each asking the next two fresh users their own query, as
    two groups of one id."""

    users_required = 4

    def __init__(self, queries):
        self.queries = queries

    def start(self):
        return 0

    def decide(self, state):
        if state == 2:
            return Halt("done")
        first = 2 * state
        users = (range(first, first + 1), range(first + 1, first + 2))
        return RoundSpec(users=users, queries=tuple(self.queries[first : first + 2]))

    def advance(self, state, ones, asked):
        return state + 1


def test_one_bit_view_refuses_a_round_without_users():
    # such a round would start the next round at the same prefix, over and over
    driver = _TwoUsersPerRound([])
    driver.decide = lambda state: RoundSpec(users=range(0), queries=[])
    with pytest.raises(ReductionError, match="the round at bit 0 asks no user"):
        one_bit_view(driver, LN3, PAIR).step_fn(())


def test_one_bit_view_gives_each_user_their_own_query():
    queries = [law_query(LN3, f"own-{i}", p, 1.0 - p) for i, p in enumerate((0.75, 0.6, 0.5, 0.4))]
    view = one_bit_view(_TwoUsersPerRound(queries), LN3, PAIR)
    for prefix in product((0, 1), repeat=4):
        assert [view.step_fn(prefix[:user]) for user in range(4)] == queries
        assert view.step_fn(prefix).fn(prefix) == "done"
    nonadaptive = fixed_onebit(LN3, PAIR, queries)
    assert enumerate_onebit_distribution(view).probs == enumerate_onebit_distribution(nonadaptive).probs


# ---------------------------------------------------------------------------
# simultaneous -> alternating
# ---------------------------------------------------------------------------


def _constant_sim(num_rounds, a_bits, b_bits):
    return SimultaneousProtocol(
        num_rounds=num_rounds,
        alice_param=lambda _inp, pairs, v=a_bits: float(v[len(pairs)]),
        bob_param=lambda _inp, pairs, v=b_bits: float(v[len(pairs)]),
    )


def test_transform_one_round_becomes_two():
    alternating = AlternatingProtocol(_constant_sim(1, (1,), (0,)))
    assert alternating.rounds == ((Side.BOB, 1), (Side.ALICE, 1))


def test_transform_round_shape_general():
    for rounds, expected in ((1, 2), (2, 3), (3, 4), (5, 6)):
        alternating = AlternatingProtocol(_constant_sim(rounds, (1,) * rounds, (0,) * rounds))
        assert alternating.num_rounds == expected
        assert alternating.rounds[0] == (Side.BOB, 1)


def test_transform_rejects_alternating_input():
    protocol = _constant_sim(1, (1,), (0,))
    alternating = AlternatingProtocol(protocol)
    with pytest.raises(ValueError, match="simultaneous"):
        AlternatingProtocol(alternating)
    table = TableProtocol(
        num_bits=2, sender_fn=lambda prefix: Side.ALICE, param_fn=lambda inp, prefix: 0.5, channel=ChannelSpec()
    )
    with pytest.raises(ValueError, match="simultaneous"):
        AlternatingProtocol(table)


@pytest.mark.parametrize("num_rounds", [1, 2, 3])
def test_round_protocols_are_noiseless_two_party_protocols(num_rounds):
    protocol = _constant_sim(num_rounds, (1, 0, 1)[:num_rounds], (0, 1, 1)[:num_rounds])
    alternating = AlternatingProtocol(protocol)
    for candidate, max_bits in ((protocol, 2 * num_rounds), (alternating, len(alternating.positions))):
        assert isinstance(candidate, TwoPartyProtocol)
        assert candidate.channel == ChannelSpec() and candidate.max_bits == max_bits
    # both halt with the source's pairs after exactly max_bits bits
    pairs = tuple(zip((1, 0, 1)[:num_rounds], (0, 1, 1)[:num_rounds]))
    flat = tuple(bit for pair in pairs for bit in pair)
    assert protocol.action(flat).fn(flat) == pairs
    assert enumerate_transcript_distribution(protocol, 0, 0).probs == {"".join(map(str, flat)): 1.0}
    assert alternating_pairs_distribution(alternating, 0, 0).probs == {"".join(map(str, flat)): 1.0}
    for bits in product((0, 1), repeat=alternating.max_bits - 1):
        assert not isinstance(alternating.action(bits), Answer)


def test_transform_preserves_distribution_randomized():
    protocol = SimultaneousProtocol(
        num_rounds=2,
        alice_param=lambda inp, pairs: 0.2 + 0.5 * inp if not pairs else (0.8 if pairs[0][1] else 0.3),
        bob_param=lambda inp, pairs: 0.6 - 0.3 * inp if not pairs else (0.1 if pairs[0][0] else 0.9),
    )
    for x, y in product((0, 1), repeat=2):
        tv = enumerate_transcript_distribution(protocol, x, y).tv_distance(
            alternating_pairs_distribution(AlternatingProtocol(protocol), x, y)
        )
        assert tv <= 1e-12


def test_transform_answers_with_the_source_pairs():
    protocol = SimultaneousProtocol(
        num_rounds=2,
        alice_param=lambda _inp, pairs: 1.0,
        bob_param=lambda _inp, pairs: 0.0,
    )
    alternating = AlternatingProtocol(protocol)
    dist = enumerate_transcript_distribution(alternating, 1, 0)
    (bits,) = [k for k, v in dist.probs.items() if v == 1.0]
    bits = tuple(int(b) for b in bits)
    assert alternating.action(bits).fn(bits) == ((1, 0), (1, 0))


@pytest.mark.parametrize("num_rounds", range(1, 9))
def test_transform_dependency_order_sound(num_rounds):
    alternating = AlternatingProtocol(_constant_sim(num_rounds, (1,) * num_rounds, (0,) * num_rounds))
    positions = alternating.positions
    # each side's bits 0..T-1 appear exactly once
    assert len(positions) == 2 * num_rounds
    assert set(positions) == {(side, t) for side in (Side.ALICE, Side.BOB) for t in range(num_rounds)}
    assert positions[0] == (Side.BOB, 0)
    # bit t reads both sides' bits 0..t-1, so each must be published before it
    for pos, (_, t) in enumerate(positions):
        for i in range(t):
            for side in (Side.ALICE, Side.BOB):
                assert positions.index((side, i)) < pos
    assert alternating.num_rounds == num_rounds + 1


@pytest.mark.parametrize(
    "positions",
    [
        ((Side.ALICE, 0), (Side.BOB, 0)),  # covers round 0 of 2 only
        ((Side.ALICE, 0), (Side.BOB, 0), (Side.ALICE, 2)),  # skips round 1
    ],
)
def test_a_hand_built_schedule_is_refused(positions):
    source = _constant_sim(2, (1, 0), (0, 1))
    with pytest.raises(TypeError):
        AlternatingProtocol(source=source, positions=positions)


# ---------------------------------------------------------------------------
# merged enumerator against the reference enumerators
# ---------------------------------------------------------------------------


def _valid_law_pair(epsilon, p_a, t):
    """A law for Bob within the e^epsilon likelihood bounds of Alice's."""
    bound = math.exp(epsilon)
    lo = max(p_a / bound, 1.0 - (1.0 - p_a) * bound)
    hi = min(p_a * bound, 1.0 - (1.0 - p_a) / bound)
    return p_a, lo + t * (hi - lo)


_LAW = st.one_of(
    st.tuples(st.floats(0.02, 0.98), st.floats(0.0, 1.0), st.booleans()),
    st.sampled_from([(0.0, None, False), (1.0, None, False)]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=3.0),
    st.integers(min_value=1, max_value=3),
    st.lists(_LAW, min_size=7, max_size=7),
)
def test_lowered_enumeration_matches_reference(epsilon, num_users, draws):
    prefixes = [prefix for t in range(num_users) for prefix in product((0, 1), repeat=t)]
    queries = {}
    for i, (prefix, (p_a, t, mirror)) in enumerate(zip(prefixes, draws)):
        pair = (p_a, p_a) if t is None else _valid_law_pair(epsilon, p_a, t)
        if mirror:
            pair = (1.0 - pair[0], 1.0 - pair[1])
        queries[prefix] = law_query(epsilon, f"h{i}", *pair)

    def step_fn(prefix):
        if len(prefix) >= num_users:
            return Answer(lambda transcript: transcript)
        return queries[prefix]

    source = OneBitSequence(epsilon=epsilon, data_pair=PAIR, step_fn=step_fn, max_users=num_users)
    lowered = LoweredProtocol(source, epsilon)
    merged = enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1]).probs
    reference = reference_two_party(lowered, PAIR[0], PAIR[1])
    assert set(merged) == set(reference)
    for key, prob in reference.items():
        assert abs(merged[key] - prob) <= 1e-14
    expected_cases = {"case1" if q.law(PAIR[0]) + q.law(PAIR[1]) <= 1.0 else "case2" for q in queries.values()}
    assert lowered.cases_used <= expected_cases
    assert enumerate_onebit_distribution(source).probs == reference_onebit(source)


def test_lowered_enumeration_covers_both_cases():
    # one protocol whose prefixes run both case1 and case2 against the reference
    epsilon = LN2
    q1 = law_query(epsilon, "q1", 0.3, 0.2)
    q_zero = law_query(epsilon, "q20", 0.7, 0.8)
    q_one = law_query(epsilon, "q21", 0.0, 0.0)

    def step_fn(prefix):
        if len(prefix) == 0:
            return q1
        if len(prefix) == 1:
            return q_zero if prefix[0] == 0 else q_one
        return Answer(lambda transcript: transcript)

    lowered = LoweredProtocol(OneBitSequence(epsilon, PAIR, step_fn, max_users=2), epsilon)
    merged = enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1]).probs
    reference = reference_two_party(lowered, PAIR[0], PAIR[1])
    assert lowered.cases_used == {"case1", "case2"}
    assert set(merged) == set(reference) == {"00", "01", "10"}
    assert all(abs(merged[key] - reference[key]) <= 1e-14 for key in reference)


def test_lowered_enumeration_asks_each_law_once_per_datum():
    # a 3-user lowered enumeration: each internal prefix evaluates its law on
    # the two data of the pair, and the send steps reuse those checked values
    epsilon = LN2
    law_calls = []

    def counted(name, p_alice, p_bob):
        query = law_query(epsilon, name, p_alice, p_bob)
        return LawQuery(epsilon, name, lambda datum: law_calls.append(name) or query.law_fn(datum))

    queries = {(): counted("a", 0.3, 0.2), (0,): counted("b", 0.7, 0.8), (1,): counted("c", 0.4, 0.6)}
    internal = []

    def step_fn(prefix):
        if len(prefix) >= 3:
            return Answer(lambda transcript: transcript)
        internal.append(prefix)
        return queries.get(prefix) or counted("d", 0.5, 0.25)

    lowered = LoweredProtocol(OneBitSequence(epsilon, PAIR, step_fn, max_users=3), epsilon)
    merged = enumerate_transcript_distribution(lowered, PAIR[0], PAIR[1]).probs
    assert len(internal) == 7 and len(law_calls) == 2 * len(internal)
    reference = reference_two_party(lowered, PAIR[0], PAIR[1])
    assert set(merged) == set(reference)
    assert all(abs(merged[key] - reference[key]) <= 1e-14 for key in reference)
    # a holder outside the data pair still asks the query, and its law is checked
    outside = Datum(Side.ALICE, "z")
    law_calls.clear()
    steps = lowered.action(())
    assert len(law_calls) == 2
    steps[0][1].send_param(outside)
    assert len(law_calls) == 3

    class LooseQuery:  # a law that is valid on the pair only, with no check of its own
        def law(self, datum):
            return 0.3 if datum in PAIR else 1.5

    loose_steps = LoweredProtocol(fixed_onebit(epsilon, PAIR, [LooseQuery()]), epsilon).action(())
    with pytest.raises(ReductionError, match="holder law"):
        loose_steps[0][1].send_param(outside)


def _random_lift_table(rng, depth):
    functions = ((0, 0), (1, 1), (0, 1), (1, 0))
    prefixes = [prefix for t in range(depth) for prefix in product((0, 1), repeat=t)]
    return {prefix: ((Side.ALICE, Side.BOB)[rng.randrange(2)], functions[rng.randrange(4)]) for prefix in prefixes}


def test_lift_enumerations_are_bit_identical_to_reference():
    import random

    rng = random.Random(11)
    for depth in (1, 3, 5):
        table = _random_lift_table(rng, depth)
        protocol = TableProtocol(
            num_bits=depth,
            sender_fn=lambda prefix, t=table: t[prefix][0],
            param_fn=lambda inp, prefix, t=table: float(t[prefix][1][inp]),
            channel=lift_channel(LN3),
        )
        for x, y in product((0, 1), repeat=2):
            lifted = lift_two_party_to_ldp(protocol, LN3, (Datum(Side.ALICE, x), Datum(Side.BOB, y)))
            assert enumerate_transcript_distribution(protocol, x, y).probs == reference_two_party(protocol, x, y)
            assert enumerate_onebit_distribution(lifted).probs == reference_onebit(lifted)


def test_onebit_enumeration_is_bit_identical_to_reference():
    queries = [
        law_query(LN3, "rr1", rr_param(1, LN3), rr_param(0, LN3)),
        law_query(LN3, "c", 0.3, 0.3),
        law_query(LN3, "zero", 0.0, 0.0),
        law_query(LN3, "rr0", rr_param(0, LN3), rr_param(1, LN3)),
    ]
    protocol = fixed_onebit(LN3, PAIR, queries)
    dist = enumerate_onebit_distribution(protocol)
    assert dist.probs == reference_onebit(protocol)
    assert all(key[2] == "0" for key in dist.probs)


def test_round_reschedule_enumerations_are_bit_identical_to_reference():
    import random

    rng = random.Random(5)
    for num_rounds in (1, 2, 3):
        a_table = {}
        b_table = {}

        def param(table, inp, pairs):
            key = (inp, pairs)
            if key not in table:
                table[key] = rng.choice((0.0, 1.0, rng.random()))
            return table[key]

        protocol = SimultaneousProtocol(
            num_rounds=num_rounds,
            alice_param=lambda inp, pairs, t=a_table: param(t, inp, pairs),
            bob_param=lambda inp, pairs, t=b_table: param(t, inp, pairs),
        )
        alternating = AlternatingProtocol(protocol)
        for x, y in product((0, 1), repeat=2):
            assert enumerate_transcript_distribution(protocol, x, y).probs == reference_simultaneous(protocol, x, y)
            assert enumerate_transcript_distribution(alternating, x, y).probs == reference_alternating(
                alternating, x, y
            )
