"""The canonical JSON writer and the table parse against the stdlib they re-create.

``jsonio.dumps`` must print what ``json.dumps(obj, sort_keys=True, indent=2,
separators=(",", ": "))`` prints, and ``cli._parse`` must read every argv
as argparse does, on every supported Python.  Both tests need only the
stdlib and polymix, so they run without numpy.
"""

import argparse
import contextlib
import io
import json
import math
import random
from pathlib import Path

from polymix import cli
from polymix.jsonio import dumps

GOLDEN = Path(__file__).resolve().parent / "golden"


def reference_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))


FLOATS = [0.0, -0.0, 1e-7, 1e22, 1e16, 0.1, -2.5, 123456789.125, 5e-324, 1.7976931348623157e308,
          math.inf, -math.inf, math.nan]
CHARACTERS = ['a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\b', '\f', '\x00', '\x1f', '\x7f',
              'é', 'ß', '漢', ' ', '\U0001f600', '\ud800']


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, 1, -1, rng.randint(-10 ** 6, 10 ** 6), 2 ** 63,
                           -rng.randint(1, 10 ** 4000), rng.randint(1, 10 ** 4000)])
    if kind == 2:
        return rng.choice(FLOATS + [rng.uniform(-1e300, 1e300), rng.random()])
    if kind in (3, 4, 5):
        return "".join(rng.choice(CHARACTERS) for _ in range(rng.randint(0, 6)))
    items = [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {"".join(rng.choice(CHARACTERS) for _ in range(rng.randint(0, 3))): item
            for item in items}


def test_writer_matches_json_dumps_on_every_golden_report():
    reports = [json.loads(text) for text in
               (path.read_text() for path in sorted(GOLDEN.glob("*.stdout"))) if text]
    assert len(reports) > 30
    for report in reports:
        assert dumps(report) == reference_dumps(report)


def test_writer_matches_json_dumps_on_random_values():
    rng = random.Random(17)
    for _ in range(3000):
        value = random_value(rng)
        assert dumps(value) == reference_dumps(value)
    for value in ([], {}, [[]], {"a": {}}, [{}, [], ""], -0.0, 1e22, 1e-7, "", "\ud800"):
        assert dumps(value) == reference_dumps(value)


def test_writer_prints_integers_past_the_digit_limit():
    # json.dumps refuses these with a ValueError
    assert dumps({"den": 10 ** 5000}) == '{\n  "den": 1' + "0" * 5000 + "\n}"
    assert dumps([-(10 ** 5000) - 7]) == "[\n  -1" + "0" * 4999 + "7\n]"


# -- the table parse --------------------------------------------------------

def outcome(parse, argv):
    """What a parse does with argv: its command and arguments, or its exit and text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            command, args = parse(list(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()
    # repr, so that NaN arguments compare equal
    return "parsed", command, repr(sorted((k, v) for k, v in vars(args).items()
                                          if k != "command")), out.getvalue(), err.getvalue()


FLAGS = sorted({flag for command in cli._COMMANDS.values()
                for flag, _ in command.arguments if flag.startswith("-")})
ABBREVIATIONS = ["--max", "--tol", "--cyl", "--sh", "--shi", "--me", "--k-r", "--tu", "--ra",
                 "--rad", "--coeff", "--c", "--k", "--m", "--s"]
SPECIAL = ["--", "-h", "--help", "-x", "-"]
VALUES = ["3", "0", "12", "-1", "-0.5", "2.5", "1e-9", "nan", "inf", "1e400", "-inf", "junk", "",
          " 7", "exact", "box", "Exact", "[[0,0],[1,0]]", "1:3", "poly.json"]
GOOD = {"--max-k": ["0", "3", "12"], "--tolerance": ["1e-9", "0", "0.5"],
        "--cylinder": ["cyl.json"], "--shifts": ["[[0,0],[4,0]]"], "--method": ["exact", "box"],
        "--shape": ["[[0,0],[1,0]]"], "--k-range": ["1:3"], "--tuple": ["[[0,0],[1,0]]"],
        "--K": ["0", "2"], "--r": ["2", "3"], "--radius": ["0", "1"], "--coeff-degree": ["0", "1"]}


def random_argv(rng: random.Random) -> list[str]:
    if rng.random() < 0.03:
        return rng.choice([[], ["bogus", "poly.json"], ["-h"], ["--", "bounds", "poly.json"]])
    command = rng.choice(list(cli._COMMANDS))
    own = [(flag, kw) for flag, kw in cli._COMMANDS[command].arguments if flag.startswith("-")]
    argv = [command]
    if rng.random() < 0.4:  # mostly plain: own flags, mostly good values
        argv.append("poly.json")
        for flag, keywords in own:
            if keywords.get("required") or rng.random() < 0.5:
                argv += [flag, rng.choice(GOOD[flag] * 4 + VALUES)]
        return argv
    if rng.random() < 0.9:
        argv.append(rng.choice(["poly.json"] * 6 + ["-1", "", "--", "3"]))
    if rng.random() < 0.5:
        for flag, keywords in own:
            if keywords.get("required"):
                argv += [flag, rng.choice(GOOD[flag])]
    for _ in range(rng.randint(0, 4)):
        r = rng.random()
        if r < 0.6 and own:
            flag = rng.choice(own)[0]
        elif r < 0.75:
            flag = rng.choice(FLAGS)
        elif r < 0.9:
            flag = rng.choice(ABBREVIATIONS)
        else:  # an extra positional or a stray token
            argv.append(rng.choice(SPECIAL + VALUES))
            continue
        value = rng.choice(GOOD[flag] if flag in GOOD and rng.random() < 0.6 else VALUES)
        form = rng.random()
        if form < 0.85:
            argv += [flag, value]
        elif form < 0.95:
            argv.append(f"{flag}={value}")
        else:
            argv.append(flag)
    if rng.random() < 0.05:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(SPECIAL))
    return argv


def test_table_parse_matches_argparse():
    # argparse parsers are built once here: building them is most of the cost
    full = cli._build_parser()
    own = {}
    for name, command in cli._COMMANDS.items():
        own[name] = argparse.ArgumentParser(prog=f"polymix {name}")
        for flag, keywords in command.arguments:
            own[name].add_argument(flag, **keywords)

    def argparse_parse(argv):
        args = full.parse_args(argv)
        return args.command, args

    def two_parser_parse(argv):
        # the parse the table replaced: the named command's own parser, else the full one
        if argv and argv[0] in own:
            args, extra = own[argv[0]].parse_known_args(argv[1:])
            if not extra:
                return argv[0], args
        return argparse_parse(argv)

    rng = random.Random(2027)
    plain = 0
    for i in range(5000):
        argv = random_argv(rng)
        args = cli._parse_plain(list(argv))
        if args is None:
            new = outcome(argparse_parse, argv)
        else:
            plain += 1
            new = outcome(lambda _: (argv[0], args), argv)
            assert new == outcome(argparse_parse, argv), argv
        assert new == outcome(two_parser_parse, argv), argv
        if i % 10 == 0:
            assert new == outcome(cli._parse, argv), argv
    # both paths are exercised
    assert 1500 < plain < 3500
