import io
import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpsim.cli import main, parse_onebit_file, parse_two_party_file
from ldpsim.engine import InteractivityMode, execute, read_transcript, sample_population
from ldpsim.harness import ExperimentConfig, HLShape, PCShape, Trial, build_trial
from ldpsim.problems import gen_hl_instance, gen_pc_instance, hl_count_consistent, read_instance
from ldpsim.randomizers import AUDIT_SLACK, audit_transcript, write_audit_report
from ldpsim.reductions import enumerate_transcript_distribution

LN3 = math.log(3.0)

TWO_PARTY_FILE = """\
two-party bits=1 channel=bsc flip=0.375
step prefix=- sender=alice p0=0 p1=1
"""

ONE_BIT_FILE = """\
one-bit eps=1.0986122886681098 users=2
user p_alice=0.75 p_bob=0.25
user p_alice=0.7 p_bob=0.7
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_parse_two_party_file():
    protocol = parse_two_party_file(io.StringIO(TWO_PARTY_FILE))
    assert protocol.num_bits == 1
    assert protocol.channel.crossover == 0.375
    dist = enumerate_transcript_distribution(protocol, 1, 0)
    assert dist["1"] == pytest.approx(0.625, abs=1e-12)


def test_parse_onebit_file():
    protocol = parse_onebit_file(io.StringIO(ONE_BIT_FILE))
    assert protocol.max_users == 2
    assert protocol.epsilon == pytest.approx(LN3, rel=1e-12)


def test_parsed_onebit_protocol_runs_on_the_engine():
    protocol = parse_onebit_file(io.StringIO(ONE_BIT_FILE))
    alice, bob = protocol.data_pair
    for seed in range(4):
        population = sample_population(protocol.max_users, alice.payload, bob.payload, seed=seed)
        result = execute(protocol, population, InteractivityMode.SEQUENTIAL, seed=seed + 10)
        rounds = result.transcript.rounds
        assert [(record.users.tolist(), record.randomizer_ids) for record in rounds] == [
            ([0], ("file-user-0",)),
            ([1], ("file-user-1",)),
        ]
        # a fixed protocol answers with its transcript: the published bits, as Python ints
        assert result.answer == tuple(int(record.outputs[0]) for record in rounds)
        assert all(type(bit) is int for bit in result.answer)
        report = audit_transcript(result.transcript, population, result.query_log)
        assert report.max_ratio() <= protocol.epsilon + AUDIT_SLACK


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_two_party_file(io.StringIO("one-bit eps=1 users=0\n"))
    with pytest.raises(ValueError):
        parse_onebit_file(io.StringIO("one-bit eps=1 users=3\nuser p_alice=0.5 p_bob=0.5\n"))


_TWO_PARTY_HEADER = "two-party bits=1 channel=bsc flip=0.375\n"
_ONE_BIT_HEADER = "one-bit eps=1.0986122886681098 users=1\n"


_BAD_PROTOCOL_FILES = {
    "step-no-equals": ("enumerate", _TWO_PARTY_HEADER + "step prefix=- sender=alice p0\n", 2, "has no '='"),
    "step-missing-field": ("enumerate", _TWO_PARTY_HEADER + "step prefix=- sender=alice p0=0\n", 2, "field 'p1'"),
    "step-bad-number": ("enumerate", _TWO_PARTY_HEADER + "step prefix=- sender=alice p0=0 p1=one\n", 2, "not a number"),
    "step-unknown-sender": ("enumerate", _TWO_PARTY_HEADER + "step prefix=- sender=carol p0=0 p1=1\n", 2, "'carol'"),
    "step-not-probability": ("enumerate", _TWO_PARTY_HEADER + "step prefix=- sender=alice p0=0 p1=1.5\n", 2, "1.5"),
    "step-bad-prefix": ("enumerate", _TWO_PARTY_HEADER + "step prefix=2 sender=alice p0=0 p1=1\n", 2, "prefix '2'"),
    "step-long-prefix": ("enumerate", _TWO_PARTY_HEADER + "step prefix=0 sender=alice p0=0 p1=1\n", 2, "bits=1"),
    "step-duplicate": ("enumerate", _TWO_PARTY_HEADER + "step prefix=- sender=bob p0=0 p1=1\n" * 2, 3, "second row"),
    "step-after-blanks": (
        "enumerate",
        "two-party bits=2 channel=noiseless\n\n\nstep prefix=- sender=alice p0=0 p1=1\nstep prefix=0 sender=bob\n",
        5,
        "missing field 'p0'",
    ),
    "step-wrong-row": ("enumerate", _TWO_PARTY_HEADER + "user prefix=- sender=alice p0=0 p1=1\n", 2, "'step' row"),
    "two-party-wrong-header": ("enumerate", "\none-bit eps=1 users=0\n", 2, "two-party protocol header"),
    "two-party-bad-bits": ("enumerate", "two-party bits=two channel=noiseless\n", 1, "not an integer"),
    "two-party-no-flip": ("enumerate", "two-party bits=1 channel=bsc\n", 1, "missing field 'flip'"),
    "two-party-bad-flip": ("enumerate", "two-party bits=1 channel=bsc flip=0.5\n", 1, "flip must lie in"),
    "two-party-bad-channel": ("enumerate", "two-party bits=1 channel=erasure\n", 1, "unknown channel"),
    "lift-no-equals": ("lift", _TWO_PARTY_HEADER + "step prefix=- sender=alice p0\n", 2, "has no '='"),
    "user-missing-field": ("lower", _ONE_BIT_HEADER + "user p_alice=0.75\n", 2, "missing field 'p_bob'"),
    "user-no-equals": ("lower", _ONE_BIT_HEADER + "user p_alice=0.75 p_bob\n", 2, "has no '='"),
    "user-bad-number": ("lower", _ONE_BIT_HEADER + "user p_alice=high p_bob=0.25\n", 2, "not a number"),
    "user-wrong-row": ("lower", _ONE_BIT_HEADER + "\nstep p_alice=0.75 p_bob=0.25\n", 3, "'user' row"),
    "one-bit-wrong-header": ("lower", "two-party bits=1\n", 1, "one-bit protocol header"),
    "one-bit-user-count": ("lower", "one-bit eps=1 users=2\nuser p_alice=0.75 p_bob=0.25\n", 1, "users=2"),
    "one-bit-no-eps": ("lower", "one-bit users=1\nuser p_alice=0.75 p_bob=0.25\n", 1, "missing field 'eps'"),
    # fields a reader does not know, or is given twice, are refused rather than ignored
    "two-party-misspelled-channel": (
        "enumerate",
        "two-party bits=1 chanel=bsc flip=0.3\nstep prefix=- sender=alice p0=0 p1=1\n",
        1,
        "unknown field 'chanel'",
    ),
    "two-party-noiseless-flip": (
        "enumerate",
        "two-party bits=1 channel=noiseless flip=0.3\nstep prefix=- sender=alice p0=0 p1=1\n",
        1,
        "flip needs channel=bsc",
    ),
    "two-party-flip-no-channel": (
        "enumerate",
        "two-party bits=1 flip=0.3\nstep prefix=- sender=alice p0=0 p1=1\n",
        1,
        "flip needs channel=bsc",
    ),
    "two-party-repeated-field": (
        "enumerate",
        "two-party bits=1 channel=bsc flip=0.3 flip=0.1\nstep prefix=- sender=alice p0=0 p1=1\n",
        1,
        "repeated field 'flip'",
    ),
    "step-unknown-field": ("enumerate", _TWO_PARTY_HEADER + "step prefix=- sender=alice p0=0 p1=1 p2=0.5\n", 2, "'p2'"),
    "lift-unknown-field": ("lift", _TWO_PARTY_HEADER + "step prefix=- sender=alice p0=0 p1=1 p2=0.5\n", 2, "'p2'"),
    "one-bit-unknown-field": ("lower", "one-bit eps=1 users=1 extra=3\nuser p_alice=0.75 p_bob=0.25\n", 1, "'extra'"),
    "user-unknown-field": ("lower", _ONE_BIT_HEADER + "user p_alice=0.75 p_bob=0.25 p_carol=1\n", 2, "'p_carol'"),
    "user-repeated-field": (
        "lower",
        _ONE_BIT_HEADER + "user p_alice=0.75 p_bob=0.25 p_alice=0.5\n",
        2,
        "repeated field 'p_alice'",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_PROTOCOL_FILES))
def test_protocol_file_errors_name_the_line(capsys, tmp_path, case):
    command, text, lineno, message = _BAD_PROTOCOL_FILES[case]
    proto = tmp_path / "proto.txt"
    proto.write_text(text)
    argv = {
        "enumerate": ["enumerate", "--protocol", str(proto), "--x", "0", "--y", "1"],
        "lift": ["reduce", "lift", "--eps", str(LN3), "--protocol", str(proto)],
        "lower": ["reduce", "lower", "--eps", str(LN3), "--protocol", str(proto)],
    }[command]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert f"line {lineno}: " in stderr and message in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("command", ["enumerate", "lift", "lower"])
def test_protocol_file_that_is_not_utf8_names_the_file_and_the_line(capsys, tmp_path, command):
    text = ONE_BIT_FILE if command == "lower" else TWO_PARTY_FILE
    proto = tmp_path / "proto.txt"
    proto.write_bytes(text.encode() + b"\n\xff\n")
    argv = {
        "enumerate": ["enumerate", "--protocol", str(proto), "--x", "0", "--y", "1"],
        "lift": ["reduce", "lift", "--eps", str(LN3), "--protocol", str(proto)],
        "lower": ["reduce", "lower", "--eps", str(LN3), "--protocol", str(proto)],
    }[command]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (1, "")
    lineno = text.count("\n") + 2
    assert stderr == f"error: {proto}: line {lineno}: not UTF-8 text (invalid start byte)\n"


# What the four readers know: each row tag with its field keys, and each key
# with typical values; every field may also take one of the bad values.
_FUZZ_FIELDS = {
    "hl": {
        "branching": ("1", "2", "3"),
        "num_levels": ("2", "3", "4"),
        "alice_layer": ("0", "2"),
        "bob_layer": ("1", "3"),
        "label_seed": ("0", "5"),
    },
    "pc": {"hops": ("1", "2"), "size": ("2", "3"), "indexing": ("1", "0")},
    "alice": {},
    "bob": {},
    "oracle": {},
    "consistent_count": {},
    "two-party": {"bits": ("0", "1", "2"), "channel": ("bsc", "noiseless", "erasure"), "flip": ("0", "0.3", "0.5")},
    "step": {
        "prefix": ("-", "0", "1", "01", "2"),
        "sender": ("alice", "bob", "carol"),
        "p0": ("0", "0.5", "1", "1.5"),
        "p1": ("0", "0.5", "1", "1.5"),
    },
    "one-bit": {"eps": ("1", "0.5", "0", "inf"), "users": ("0", "1", "2")},
    "user": {"p_alice": ("0", "0.25", "0.75", "1"), "p_bob": ("0", "0.25", "0.75", "1")},
}
_FUZZ_BAD = ("", "x", "-1", "nan", "1e400")
# the entries of rows without fields, and of transcript columns
_FUZZ_ENTRIES = ("0", "1", "2", "3", "0.5", "x", "-1", "nan", "pc-bit(alice,1,1)")
_FUZZ_ANY_FIELD = [
    f"{key}={value}"
    for fields in _FUZZ_FIELDS.values()
    for key, values in fields.items()
    for value in values + _FUZZ_BAD
]


def _fuzz_tagged_row(tag):
    """``tag``, then each of its own fields or none, or some entries for a
    row without fields, then perhaps one field of any row."""
    own = st.tuples(
        *(
            st.one_of(st.just(""), st.sampled_from(values + _FUZZ_BAD).map(f"{key}={{}}".format))
            for key, values in _FUZZ_FIELDS[tag].items()
        )
    )
    if not _FUZZ_FIELDS[tag]:
        own = st.lists(st.sampled_from(_FUZZ_ENTRIES), max_size=4)
    other = st.one_of(st.just(""), st.sampled_from(_FUZZ_ANY_FIELD))
    return st.builds(lambda own, other: " ".join((tag, *own, other)), own, other)


# a transcript row: tab-separated columns of space-separated entries
_fuzz_transcript_row = st.lists(st.lists(st.sampled_from(_FUZZ_ENTRIES), max_size=3).map(" ".join), max_size=6).map(
    "\t".join
)
_fuzz_row = st.one_of(st.sampled_from(sorted(_FUZZ_FIELDS)).flatmap(_fuzz_tagged_row), _fuzz_transcript_row, st.text())
_FUZZ_READERS = {
    read_instance: "empty instance file",
    read_transcript: None,  # an empty transcript is a valid one
    parse_two_party_file: "expected a two-party protocol file, got an empty file",
    parse_onebit_file: "expected a one-bit protocol file, got an empty file",
}


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        # a file that starts with one of the four headers, and then anything
        st.builds(
            lambda header, rows: "\n".join((header, *rows)),
            st.sampled_from(("hl", "pc", "two-party", "one-bit")).flatmap(_fuzz_tagged_row),
            st.lists(_fuzz_row, max_size=4),
        ),
        st.lists(_fuzz_transcript_row, max_size=4).map("\n".join),
        st.text(),
    )
)
def test_readers_return_or_name_a_line_of_the_input(text):
    lines = len(io.StringIO(text).readlines())
    for reader, empty_message in _FUZZ_READERS.items():
        try:
            reader(io.StringIO(text))
        except ValueError as exc:
            message = str(exc)
            if message != empty_message:
                match = re.match(r"line (\d+): ", message)
                assert match and 1 <= int(match.group(1)) <= lines, (reader.__name__, message)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_gen_instance_pc_prints_oracle(capsys, tmp_path):
    out = tmp_path / "inst.txt"
    code, stdout, _ = run_cli(
        capsys, "gen-instance", "pc", "--k", "2", "--l", "8", "--seed", "7", "--out", str(out)
    )
    assert code == 0
    text = out.read_text()
    lines = text.splitlines()
    inst = read_instance(lines[:3])
    assert inst.hops == 2 and inst.size == 8
    assert lines[3].startswith("oracle ")


@pytest.mark.parametrize(
    "argv, instance",
    [
        (("hl", "--b", "2", "--l", "3", "--seed", "5"), gen_hl_instance(2, 3, 5)),
        (("pc", "--k", "2", "--l", "8", "--seed", "7"), gen_pc_instance(2, 8, 7)),
    ],
)
def test_read_instance_reads_a_whole_gen_instance_file(capsys, argv, instance):
    # the appended oracle or consistent_count row is left unread
    code, stdout, _ = run_cli(capsys, "gen-instance", *argv)
    assert code == 0 and stdout.splitlines()[-1].split()[0] in ("oracle", "consistent_count")
    assert read_instance(io.StringIO(stdout)) == instance


def test_gen_instance_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "gen-instance", "hl", "--b", "2", "--l", "3", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "gen-instance", "hl", "--b", "2", "--l", "3", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "consistent_count 2" in out1


def test_gen_instance_prints_the_count_past_the_enumeration_guard(capsys):
    code, stdout, stderr = run_cli(capsys, "gen-instance", "hl", "--b", "4", "--l", "13", "--seed", "1")
    assert code == 0 and stderr == ""
    assert stdout.splitlines()[-1] == f"consistent_count {4 ** 11}"
    # within the guard the printed count B^(L-2) is the brute-force count
    for b, l, seed in ((2, 3, 5), (3, 4, 1), (4, 5, 2), (2, 2, 9)):
        code, stdout, _ = run_cli(capsys, "gen-instance", "hl", "--b", str(b), "--l", str(l), "--seed", str(seed))
        assert code == 0
        assert stdout.splitlines()[-1] == f"consistent_count {hl_count_consistent(gen_hl_instance(b, l, seed))}"


_HL_FLAGS = ["--problem", "hl", "--b", "2", "--l", "3", "--n", "5"]
_PC_FLAGS = ["--problem", "pc", "--k", "1", "--l", "4", "--m", "5"]
# each command with a budget out of range, and the budget its error names
_OUT_OF_RANGE_BUDGETS = {
    "run-hl-huge": (["run", *_HL_FLAGS, "--eps", "1e300", "--trials", "1"], "5e+299"),
    "run-hl-tiny": (["run", *_HL_FLAGS, "--eps", "1e-300", "--trials", "1"], "5e-301"),
    "run-pc": (["run", *_PC_FLAGS, "--eps", "800", "--trials", "1"], "800.0"),
    "sweep-pc": (["sweep", *_PC_FLAGS, "--eps", "800", "--trials", "1", "--axis", "m", "--values", "5,6"], "800.0"),
    # the refused value comes after one the solver accepts
    "sweep-axis": (["sweep", *_PC_FLAGS, "--eps", "1", "--trials", "2", "--axis", "epsilon", "--values", "1,800"], "800.0"),
    "audit-pc": (["audit", *_PC_FLAGS, "--eps", "800"], "800.0"),
    "lift": (["reduce", "lift", "--eps", "800"], "800.0"),
    "lower": (["reduce", "lower", "--eps", "800"], "800.0"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE_BUDGETS))
def test_a_budget_out_of_range_is_one_error_line(capsys, monkeypatch, tmp_path, case):
    argv, budget = _OUT_OF_RANGE_BUDGETS[case]
    if argv[0] == "reduce":
        proto = tmp_path / "proto.txt"
        proto.write_text(ONE_BIT_FILE if argv[1] == "lower" else TWO_PARTY_FILE)
        argv = argv + ["--protocol", str(proto)]
    else:
        argv = argv + ["--seed", "1"]
    # run, sweep and audit refuse the budget before any execution
    monkeypatch.setattr(Trial, "execute", lambda self: pytest.fail("a trial executed"))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert f"= {budget} is out of range" in stderr


def test_run_json_output(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "run",
        "--problem",
        "pc",
        "--k",
        "1",
        "--l",
        "2",
        "--eps",
        "20",
        "--m",
        "30",
        "--trials",
        "4",
        "--seed",
        "3",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["trials"] == 4
    assert payload["success_count"] == 4
    assert "wall_time" not in payload


def test_run_with_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "pc", "k": 1, "l": 2, "eps": 20.0, "m": 30, "trials": 2}))
    code, stdout, _ = run_cli(capsys, "run", "--config", str(cfg), "--seed", "3")
    assert code == 0
    assert json.loads(stdout)["trials"] == 2


def test_config_file_solver_key_is_applied(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    keys = {"problem": "hl", "b": 2, "l": 3, "n": 10, "eps": 1, "trials": 1}
    cfg.write_text(json.dumps({**keys, "solver": "baseline"}))
    code, stdout, _ = run_cli(capsys, "run", "--config", str(cfg), "--seed", "1")
    assert code == 0
    assert json.loads(stdout)["solver"] == "hl-baseline"
    # an explicit flag still wins over the file
    code, stdout, _ = run_cli(capsys, "run", "--config", str(cfg), "--seed", "1", "--solver", "full")
    assert code == 0
    assert json.loads(stdout)["solver"] == "hl-full"
    cfg.write_text(json.dumps(keys))
    code, stdout, _ = run_cli(capsys, "run", "--config", str(cfg), "--seed", "1")
    assert code == 0
    assert json.loads(stdout)["solver"] == "hl-full"
    cfg.write_text(json.dumps({**keys, "solver": "fastest"}))
    code, stdout, stderr = run_cli(capsys, "run", "--config", str(cfg), "--seed", "1")
    assert code == 1 and stdout == ""
    assert "unknown solver 'fastest'" in stderr


_HL_FLAGS = ("--problem", "hl", "--b", "2", "--l", "3", "--seed", "1")


@pytest.mark.parametrize(
    "values, error",
    [
        ({"threshold": "0.2", "n": 10, "trials": 1, "eps": 1}, None),
        ({"trials": 2.5, "n": 10.9, "eps": 1}, "config file key 'trials': invalid int value '2.5'"),
        ({"n": 10, "trials": True, "eps": 1}, "config file key 'trials': invalid int value 'True'"),
        ({"n": 10, "trials": 1, "eps": "one"}, "config file key 'eps': invalid float value 'one'"),
    ],
    ids=["text-threshold", "fractional-trials", "boolean-trials", "text-eps"],
)
def test_config_file_values_parse_as_their_flags(capsys, tmp_path, values, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, stdout, stderr = run_cli(capsys, "run", *_HL_FLAGS, "--config", str(cfg))
    if error is None:
        flags = [word for key, value in values.items() for word in (f"--{key}", str(value))]
        assert (code, stdout) == run_cli(capsys, "run", *_HL_FLAGS, *flags)[:2]
        assert code == 0
    else:
        assert code == 1 and stdout == ""
        assert stderr == f"error: {error}\n"


@pytest.mark.parametrize("content", ["[1]", '"x"', "3"])
def test_config_file_must_be_a_json_object(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, stdout, stderr = run_cli(capsys, "run", "--seed", "1", "--config", str(cfg))
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert str(cfg) in stderr and "JSON object" in stderr


def test_config_file_that_is_not_json_names_the_file(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"problem": ')
    code, stdout, stderr = run_cli(capsys, "run", "--seed", "1", "--config", str(cfg))
    assert code == 1 and stdout == ""
    assert stderr == f"error: config file {cfg}: not valid JSON: Expecting value: line 1 column 13 (char 12)\n"


def test_config_file_that_is_not_utf8_names_the_file_and_the_line(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"problem": "pc",\n\xff\xfe{')
    code, stdout, stderr = run_cli(capsys, "run", "--seed", "1", "--config", str(cfg))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: {cfg}: line 2: not UTF-8 text (invalid start byte)\n"


_PC_KEYS = {"problem": "pc", "k": 1, "l": 2, "eps": 20.0, "m": 30, "trials": 2}


def test_config_file_seed_key_is_applied(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_PC_KEYS, "seed": 3}))
    code, stdout, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert (code, stdout) == run_cli(capsys, "run", "--config", str(cfg), "--seed", "3")[:2]
    assert json.loads(stdout)["seed"] == 3
    # an explicit --seed still wins over the file
    code, stdout, _ = run_cli(capsys, "run", "--config", str(cfg), "--seed", "4")
    assert code == 0 and json.loads(stdout)["seed"] == 4
    # with a seed in neither, the command names the flag
    cfg.write_text(json.dumps(_PC_KEYS))
    code, stdout, stderr = run_cli(capsys, "run", "--config", str(cfg))
    assert (code, stdout, stderr) == (1, "", "error: missing required option --seed\n")


def test_run_missing_required_flags(capsys):
    code, _stdout, stderr = run_cli(capsys, "run", "--problem", "pc", "--seed", "1")
    assert code == 1
    assert "error" in stderr


def test_seed_is_mandatory(capsys):
    code, _stdout, stderr = run_cli(
        capsys, "run", "--problem", "pc", "--k", "1", "--l", "2", "--eps", "1", "--m", "5", "--trials", "1"
    )
    assert code == 1
    assert stderr == "error: missing required option --seed\n"


def test_sweep_csv_output(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "sweep",
        "--problem",
        "pc",
        "--k",
        "1",
        "--l",
        "2",
        "--eps",
        "20",
        "--m",
        "10",
        "--trials",
        "2",
        "--seed",
        "3",
        "--axis",
        "m",
        "--values",
        "10,20",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("problem,solver,shape")
    assert len(lines) == 3


def test_sweep_json_output(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "sweep",
        *("--problem", "pc", "--k", "1", "--l", "2", "--eps", "20", "--m", "10", "--trials", "2", "--seed", "3"),
        *("--axis", "m", "--values", "10,20", "--format", "json"),
    )
    assert code == 0
    rows = json.loads(stdout)
    assert [(row["axis"], row["axis_value"], row["group_size"]) for row in rows] == [("m", "10", 10), ("m", "20", 20)]
    assert all(row["trials"] == 2 for row in rows)


def test_audit_table(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "audit",
        "--problem",
        "pc",
        "--k",
        "1",
        "--l",
        "2",
        "--eps",
        "1",
        "--m",
        "2",
        "--seed",
        "9",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "user_id\tmax_log_ratio\tbudget\tstatus"
    assert all(line.endswith("pass") for line in lines[1:])


PC_AUDIT = ["audit", "--problem", "pc", "--k", "1", "--l", "4", "--m", "20", "--eps", "0.3", "--seed", "16"]
HL_AUDIT = ["audit", "--problem", "hl", "--b", "2", "--l", "3", "--n", "12", "--eps", "0.7", "--seed", "18"]


def _factory_audit(cfg):
    trial = build_trial(cfg, cfg.seed)
    buffer = io.StringIO()
    write_audit_report(trial.audit(trial.execute()), cfg.epsilon, buffer)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "argv, cfg, threshold",
    [
        (PC_AUDIT, ExperimentConfig(PCShape(1, 4), "pc", 0.3, 1, 16, 20), 0.45),
        (HL_AUDIT, ExperimentConfig(HLShape(2, 3), "hl-full", 0.7, 1, 18, 12), 0.01),
        (HL_AUDIT + ["--solver", "baseline"], ExperimentConfig(HLShape(2, 3), "hl-baseline", 0.7, 1, 18, 12), 0.01),
    ],
)
def test_audit_threshold_is_honoured(capsys, argv, cfg, threshold):
    # at these seeds the two thresholds probe different pointer bits or edges
    code, default, _ = run_cli(capsys, *argv)
    code_tuned, tuned, _ = run_cli(capsys, *argv, "--threshold", str(threshold))
    assert code == code_tuned == 0
    assert default == _factory_audit(cfg)
    assert tuned == _factory_audit(replace(cfg, threshold=threshold))
    assert tuned != default


@pytest.mark.parametrize("flag, value", [("--trials", "9"), ("--format", "csv")])
def test_audit_rejects_flags_it_does_not_read(capsys, flag, value):
    code, stdout, stderr = run_cli(capsys, *PC_AUDIT, flag, value)
    assert code == 1
    assert stdout == ""
    assert flag in stderr


@pytest.mark.parametrize("command, extra", [("run", []), ("sweep", ["--axis", "m", "--values", "10"])])
def test_pc_rejects_baseline_solver(capsys, command, extra):
    code, stdout, stderr = run_cli(
        capsys, command, "--problem", "pc", "--solver", "baseline", "--k", "1", "--l", "2",
        "--eps", "20", "--m", "10", "--trials", "1", "--seed", "3", *extra,
    )
    assert code == 1
    assert stdout == ""
    assert "--solver" in stderr


def test_reduce_lift_echo(capsys, tmp_path):
    proto = tmp_path / "proto.txt"
    proto.write_text(TWO_PARTY_FILE)
    code, stdout, _ = run_cli(
        capsys, "reduce", "lift", "--eps", str(LN3), "--protocol", str(proto)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["lift_advantage"] == pytest.approx(0.125, abs=1e-12)
    assert payload["channel_flip"] == 0.375
    assert payload["steps"][0]["sender"] == "alice"


def test_reduce_lift_channel_mismatch(capsys, tmp_path):
    proto = tmp_path / "proto.txt"
    proto.write_text(TWO_PARTY_FILE.replace("0.375", "0.25"))
    code, _stdout, stderr = run_cli(
        capsys, "reduce", "lift", "--eps", str(LN3), "--protocol", str(proto)
    )
    assert code == 1
    assert "advantage" in stderr


def test_reduce_lift_laws_come_from_the_lifted_driver(capsys, tmp_path):
    proto = tmp_path / "proto.txt"
    proto.write_text(
        "two-party bits=2 channel=bsc flip=0.375\n"
        "step prefix=- sender=alice p0=0 p1=1\n"
        "step prefix=0 sender=bob p0=1 p1=0\n"
        "step prefix=1 sender=bob p0=1 p1=1\n"
    )
    code, stdout, _ = run_cli(capsys, "reduce", "lift", "--eps", str(LN3), "--protocol", str(proto))
    assert code == 0
    steps = json.loads(stdout)["steps"]
    assert [(s["prefix"], s["sender"]) for s in steps] == [("-", "alice"), ("0", "bob"), ("1", "bob")]
    assert [s["sender_vote_rr_params"] for s in steps] == [
        {"input=0": 0.25, "input=1": 0.75},
        {"input=0": 0.75, "input=1": 0.25},
        {"input=0": 0.75, "input=1": 0.75},
    ]
    assert all(s["other_side_param"] == 0.5 for s in steps)


def test_reduce_lift_rejects_randomized_table(capsys, tmp_path):
    proto = tmp_path / "proto.txt"
    proto.write_text(TWO_PARTY_FILE.replace("p0=0 p1=1", "p0=0.5 p1=0.9"))
    code, stdout, stderr = run_cli(capsys, "reduce", "lift", "--eps", str(LN3), "--protocol", str(proto))
    assert code == 1 and stdout == ""
    assert "lift requires deterministic next-bit functions" in stderr


@pytest.mark.parametrize(
    "rows, missing",
    [
        ("step prefix=- sender=alice p0=0 p1=1\n", "(0,)"),
        ("step prefix=- sender=alice p0=0 p1=1\nstep prefix=0 sender=bob p0=1 p1=0\n", "(1,)"),
        ("step prefix=1 sender=bob p0=1 p1=0\n", "()"),
    ],
    ids=["root-only", "no-prefix-1", "no-root"],
)
def test_reduce_lift_rejects_incomplete_table(capsys, tmp_path, rows, missing):
    proto = tmp_path / "proto.txt"
    proto.write_text("two-party bits=2 channel=bsc flip=0.375\n" + rows)
    code, stdout, stderr = run_cli(capsys, "reduce", "lift", "--eps", str(LN3), "--protocol", str(proto))
    assert code == 1 and stdout == ""
    assert f"protocol table has no entry for prefix {missing}" in stderr
    assert "Traceback" not in stderr


def test_reduce_lower_echo(capsys, tmp_path):
    proto = tmp_path / "onebit.txt"
    proto.write_text(ONE_BIT_FILE)
    code, stdout, _ = run_cli(
        capsys, "reduce", "lower", "--eps", str(LN3), "--protocol", str(proto)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["lower_advantage"] == pytest.approx(0.25, abs=1e-12)
    assert [s["case"] for s in payload["steps"]] == ["case1", "case2"]


def test_reduce_lower_has_no_eta_flag(capsys, tmp_path):
    proto = tmp_path / "onebit.txt"
    proto.write_text(ONE_BIT_FILE)
    code, stdout, _ = run_cli(capsys, "reduce", "lower", "--eta", "0.5", "--eps", str(LN3), "--protocol", str(proto))
    assert code == 1 and stdout == ""


@pytest.mark.parametrize(
    "rows, user, laws, send",
    [
        (ONE_BIT_FILE.split("\n", 1)[1], 0, "0.25 and 0.75", 1.25),
        # the second user's laws sum above 1, so their complements 0.45 and 0.15 set the ratio
        ("user p_alice=0.7 p_bob=0.7\nuser p_alice=0.85 p_bob=0.55\n", 1, "0.55 and 0.85", -0.25),
    ],
    ids=["case1", "case2"],
)
def test_reduce_lower_names_the_user_whose_laws_exceed_the_budget(capsys, tmp_path, rows, user, laws, send):
    proto = tmp_path / "onebit.txt"
    proto.write_text("one-bit eps=1.0986122886681098 users=2\n" + rows)
    code, stdout, stderr = run_cli(
        capsys, "reduce", "lower", "--eps", str(math.log(2.0)), "--protocol", str(proto)
    )
    assert code == 1 and stdout == ""
    assert stderr == (
        f"error: user {user} (query 'file-user-{user}') cannot be lowered at eps=0.6931471805599453: "
        f"the likelihood ratio of its laws {laws} exceeds e^eps=2.0 "
        f"(lowered send probability: probability {send} outside [0, 1])\n"
    )


def test_reduce_amplify_echo(capsys):
    code, stdout, _ = run_cli(capsys, "reduce", "amplify", "--flip", "0.25", "--m", "3")
    assert code == 0
    assert json.loads(stdout)["effective_flip"] == 0.15625
    assert stdout == '{\n  "effective_flip": 0.15625,\n  "inner_flip": 0.25,\n  "votes": 3\n}\n'


@pytest.mark.parametrize(
    "flip, votes, message",
    [
        ("0.5", "3", "crossover must lie in [0, 1/2)"),
        ("0.6", "4", "crossover must lie in [0, 1/2)"),
        ("0.25", "4", "votes must be an odd natural number"),
        ("0.25", "0", "votes must be an odd natural number"),
    ],
)
def test_reduce_amplify_checks_the_flip_before_the_votes(capsys, flip, votes, message):
    code, stdout, stderr = run_cli(capsys, "reduce", "amplify", "--flip", flip, "--m", votes)
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")


def test_reduce_rounds_echo(capsys):
    code, stdout, _ = run_cli(capsys, "reduce", "rounds", "--rounds", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["output_rounds"] == 3
    assert payload["first_speaker"] == "bob"
    assert payload["schedule"] == [["bob", 1], ["alice", 2], ["bob", 1]]


def test_enumerate_output(capsys, tmp_path):
    proto = tmp_path / "proto.txt"
    proto.write_text(TWO_PARTY_FILE)
    code, stdout, _ = run_cli(capsys, "enumerate", "--protocol", str(proto), "--x", "1", "--y", "0")
    assert code == 0
    assert stdout.splitlines() == ["0 0.375", "1 0.625"]


def test_enumerate_deep_protocol(capsys, tmp_path):
    # one row per reached prefix: -, 1, 11, ...; far deeper than Python's recursion limit
    bits = 1200
    rows = "".join(f"step prefix={'1' * t or '-'} sender=alice p0=1 p1=1\n" for t in range(bits))
    proto = tmp_path / "deep.txt"
    proto.write_text(f"two-party bits={bits} channel=noiseless\n" + rows)
    code, stdout, stderr = run_cli(capsys, "enumerate", "--protocol", str(proto), "--x", "0", "--y", "1")
    assert (code, stdout, stderr) == (0, f"{'1' * bits} 1.0\n", "")


@pytest.mark.parametrize("flag, value", [("--x", "2"), ("--x", "-1"), ("--y", "2"), ("--y", "-1")])
def test_enumerate_inputs_must_be_bits(capsys, tmp_path, flag, value):
    proto = tmp_path / "proto.txt"
    proto.write_text(TWO_PARTY_FILE)
    inputs = {"--x": "0", "--y": "0", flag: value}
    argv = [word for pair in inputs.items() for word in pair]
    code, stdout, stderr = run_cli(capsys, "enumerate", "--protocol", str(proto), *argv)
    assert code == 1 and stdout == ""
    assert flag in stderr and "Traceback" not in stderr


def test_acceptance_subset(capsys):
    code, stdout, _ = run_cli(capsys, "acceptance", "--only", "8", "--only", "10")
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("PASS criterion-") for line in lines)


def test_acceptance_has_no_suite_flag(capsys):
    code, _stdout, stderr = run_cli(capsys, "acceptance", "--suite", "primary")
    assert code == 1
    assert "--suite" in stderr


def test_acceptance_failure_exits_two(capsys, monkeypatch):
    import ldpsim.acceptance as acceptance

    monkeypatch.setitem(
        acceptance.CRITERIA, 10, ("stub-failure", lambda: (False, "forced"), 60.0)
    )
    code, stdout, _ = run_cli(capsys, "acceptance", "--only", "10")
    assert code == 2
    assert stdout.splitlines()[0].startswith("FAIL criterion-10")


def test_unknown_command_is_usage_error(capsys):
    code, _stdout, _stderr = run_cli(capsys, "bogus")
    assert code == 1


def test_help_exits_zero(capsys):
    code, stdout, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "gen-instance" in stdout
