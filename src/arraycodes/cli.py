"""Command-line interface.

Subcommands: construct, encode, decode, channel, verify, bounds, oracle.
Each subcommand registers only the options it reads, so any other option
is an argparse error (exit 2); options must be spelled in full, as no
parser takes abbreviations.  A selector picks each subcommand's mode
(construct --code, channel --kind, bounds --bound or --table, oracle
--which, verify --roundtrip and --kind), and a mode reads the options in
its row of `_READS`, which names the function that runs it: a missing
required option or any other option is a usage error (exit 2).
Array I/O uses the shared text format (rows over {0,1}, '#' comments,
'# L=<int>' declares the full length, which ragged input needs; a received
row may also end in '?' marks at full length).  Exit status: 0 on
success, 1 when a verification finds a failure, 2 on usage errors,
including a file that cannot be read or written and a dc/ted code, built
or loaded, whose arrays have more than `MAX_CELLS` (2^24) cells.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from .arrays import (BitArray, _row_to_int, format_bit_array, format_ragged,
                     parse_bit_array, parse_ragged)
from .bounds import (a_n_d_brute, ball_count_brute, claim8_bound,
                     dc_bound_part1, dc_bound_part2, dc_bound_part3,
                     m_s_brute, singleton_te, te_sphere_packing,
                     ted_upper_bound, v_te_general)
from .channel import ChannelSpec, apply_channel, random_instance, roundtrip_harness
from .dc import DcCode
from .errors import ArrayCodeError
from .tables import render_rows, table_i, table_ii, table_iii
from .te import (TeCodec, TeParityCheck, construct_claim5, construct_claim7,
                 construct_hasse, construct_hasse_raw, construct_interleaved,
                 verify_min_distance)
from .ted import TedCode


class UsageError(Exception):
    pass


# The functions that run the modes of `_READS`, each given the parsed arguments.

def _construction_1(args) -> TeParityCheck:
    if args.d % 2 == 0 or args.d < 3:
        raise UsageError("construction-1 needs an odd d >= 3")
    return construct_interleaved(args.n, args.d)


def _even_ext(args) -> TeParityCheck:
    if args.d % 2 or args.d < 2:
        raise UsageError("even-ext needs an even d >= 4 (or d = 2)")
    if args.d > 2 and args.L is not None:
        raise UsageError("construct --code even-ext does not read --L unless --d 2")
    return construct_interleaved(args.n, args.d, 1 if args.L is None else args.L)


def _channel_spec(args) -> ChannelSpec:
    if args.kind == "del" and (args.t < 1 or args.s < 1):
        raise UsageError("the del channel needs --t and --s of at least 1")
    if args.kind == "ted" and args.t >= 1 and args.s < 1:
        raise UsageError("the ted channel needs --s of at least 1 when --t is at least 1")
    return ChannelSpec(args.kind, e=args.e or 0, t=args.t or 0, s=args.s or 0)


def _verify_distance(args) -> int:
    if args.d < 1:
        raise UsageError(f"--d must be at least 1, got {args.d}")
    # The distance check reads the parity check alone: no encoder tables.
    H = _load_code(args.code_file)
    if not isinstance(H, TeParityCheck):
        raise UsageError("min-distance verification applies to TE parity checks")
    result = verify_min_distance(H, args.d)
    exact = "exactly" if result.exact else "at least"
    sys.stdout.write(f"minimum TE distance {exact} {result.distance}"
                     + (f" (witness pattern {result.witness})" if result.witness else "")
                     + f"; {result.patterns} patterns examined\n")
    return 0 if result.distance >= args.d else 1


def _roundtrip(args) -> int:
    if args.max_work is not None and args.max_work < 1:
        raise UsageError(f"--max-work must be at least 1, got {args.max_work}")
    codec = load_codec(args.code_file)
    spec = _channel_spec(args)
    if isinstance(codec, TeCodec) != (spec.kind == "te"):
        raise UsageError(f"a {codec.descriptor()['kind']} codec cannot "
                         f"round-trip the {spec.kind} channel; TE codes take "
                         f"--kind te, DC and TED codes --kind del or ted")
    record = roundtrip_harness(codec, spec,
                               messages=20 if args.messages is None else args.messages,
                               exhaustive=args.exhaustive, seed=args.seed or 0,
                               max_work=args.max_work)
    sys.stdout.write(record.summary() + "\n")
    if record.first_counterexample:
        sys.stdout.write(f"counterexample: {record.first_counterexample}\n")
    return 0 if record.failures == 0 else 1


def _n_values(args) -> range:
    n_min = 3 if args.n_min is None else args.n_min
    n_max = 16 if args.n_max is None else args.n_max
    if n_min > n_max:
        raise UsageError(f"--n-min {n_min} is above --n-max {n_max}: the table has no rows")
    return range(n_min, n_max + 1)


def _supplied_or_brute(value, oracle, *params) -> tuple:
    """`value` and its provenance, or the oracle's value when it is None."""
    return (value, "supplied") if value is not None else (oracle(*params), "brute-force")


def _ted_upper(args) -> str:
    info = ted_upper_bound(args.n, args.L)
    return (info["report"].record() + f" finite={float(info['finite']):.6g}"
            + f" asymptotic={float(info['asymptotic']):.6g}")


def _ball(args) -> str:
    seed = args.seed or 0
    rng = random.Random(seed)
    # the shape from the options, not read off the rows, so a negative
    # n or L is an error and not an empty array
    rows = tuple(_row_to_int([rng.randrange(2) for _ in range(args.L)])
                 for _ in range(args.n))
    return (f"oracle=ball n={args.n} L={args.L} r={args.r} seed={seed} "
            f"value={ball_count_brute(BitArray(args.n, args.L, rows), args.r)}")


# Each mode's row: the options it requires, then those it may also take, by
# argparse dest, then the function that runs it, which returns a construct
# mode's code, a channel mode's channel, a verify mode's exit status, a
# bound's or an oracle's line, or a table's rows.  A mode is named by its
# selector as spelled on the command line, and it also reads its
# subcommand's --in, --out and --code-file.  encode and decode have one mode
# each, which reads every option they register.
_READS = {
    "construct": {
        "--code construction-1": ("n d", "dump", _construction_1),
        "--code even-ext": ("n d", "L dump", _even_ext),
        "--code claim-5": ("n", "dump", lambda a: construct_claim5(a.n)),
        "--code claim-7": ("n", "dump", lambda a: construct_claim7(a.n)),
        "--code hasse": ("n L e", "raw dump", lambda a: (
            construct_hasse_raw if a.raw else construct_hasse)(a.n, a.L, a.e)),
        "--code dc": ("n L t", "", lambda a: DcCode(a.n, a.L, a.t)),
        "--code ted": ("n L t e", "", lambda a: TedCode(a.n, a.L, a.t, a.e)),
    },
    "channel": {
        "--kind te": ("e", "seed pattern", _channel_spec),
        "--kind del": ("t s", "seed", _channel_spec),
        "--kind ted": ("t s e", "seed", _channel_spec),
    },
    "verify": {
        "without --roundtrip": ("d", "", _verify_distance),
        "--roundtrip --kind te": ("e", "seed messages exhaustive max_work", _roundtrip),
        "--roundtrip --kind del": ("t s", "seed messages exhaustive max_work", _roundtrip),
        "--roundtrip --kind ted": ("t s e", "seed messages exhaustive max_work", _roundtrip),
    },
    "bounds": {
        "--table I": ("", "format n_min n_max", lambda a: table_i(_n_values(a), (2, 3, 4, 5))),
        "--table II": ("", "format n_min n_max", lambda a: table_ii(list(_n_values(a)))),
        "--table III": ("L t", "format n_min n_max", lambda a: table_iii(
            [(n, a.L, a.t) for n in _n_values(a)])),
        "--bound v-te": ("r n L", "", lambda a: (
            f"name=v-te n={a.n} L={a.L} r={a.r} value={v_te_general(a.r, a.n, a.L)}")),
        "--bound sphere": ("n L d", "", lambda a: (
            te_sphere_packing(a.n, a.L, a.d)["report"].record())),
        "--bound column-split": ("n d", "a_nd", lambda a: claim8_bound(
            a.n, a.d, *_supplied_or_brute(a.a_nd, a_n_d_brute, a.n, a.d)).record()),
        "--bound singleton": ("n L m_size", "", lambda a: (
            f"name=singleton n={a.n} L={a.L} M={a.m_size} "
            f"value={singleton_te(a.n, a.L, a.m_size)}")),
        "--bound dc-1": ("n L t s", "m_s", lambda a: dc_bound_part1(
            a.n, a.L, a.t, a.s, *_supplied_or_brute(a.m_s, m_s_brute, a.L, a.s)).record()),
        "--bound dc-23": ("n L t s", "", lambda a: (
            dc_bound_part3(a.n, a.L, a.t) if a.s == 1
            else dc_bound_part2(a.n, a.L, a.t, a.s))["report"].record()),
        "--bound ted-upper": ("n L", "", _ted_upper),
    },
    "oracle": {
        "--which ball": ("n L r", "seed", _ball),
        "--which m-s": ("L s", "", lambda a: (
            f"oracle=m-s L={a.L} s={a.s} value={m_s_brute(a.L, a.s)}")),
        "--which a-n-d": ("n d", "", lambda a: (
            f"oracle=a-n-d n={a.n} d={a.d} value={a_n_d_brute(a.n, a.d)}")),
    },
}


def _choices(command: str, flag: str) -> list:
    """The values of `flag` that select a mode of `command`, in `_READS` order."""
    return [words[words.index(flag) + 1] for words in map(str.split, _READS[command])
            if flag in words]


def _check_reads(args):
    """The function that runs the mode `args` selects (None for encode and
    decode).  Raise `UsageError` unless the mode's row of `_READS` has every
    option it requires and no option it does not read."""
    if args.command == "verify":
        if args.roundtrip and args.kind is None:
            raise UsageError("--kind is required here")
        mode = f"--roundtrip --kind {args.kind}" if args.roundtrip else "without --roundtrip"
    elif args.command in _READS:
        flag = next(f for f in ("code", "kind", "table", "bound", "which")
                    if getattr(args, f, None))
        mode = f"--{flag} {getattr(args, flag)}"
    else:
        return None
    required, optional, run = _READS[args.command][mode]
    for name in required.split():
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required here")
    reads = {"command", "func", "infile", "out", "code_file", *required.split(),
             *optional.split(), *(word[2:] for word in mode.split() if word[:2] == "--")}
    unread = [f"--{name.replace('_', '-')}" for name, value in vars(args).items()
              if name not in reads and value is not None and value is not False]
    if unread:
        raise UsageError(f"{args.command} {mode} does not read {', '.join(unread)}")
    return run


# The most cells, n * L, a dc/ted descriptor may give its arrays: a larger
# code would still load, and a round trip would then draw messages of up
# to that many bits.  DC(255, 255, t) has 65,025 cells.
MAX_CELLS = 1 << 24


def _check_cells(kind: str, codec, source: str):
    """`codec`, a dc/ted codec, unless its arrays have more than
    `MAX_CELLS` cells; `source` says where it came from."""
    cells = codec.n * codec.L
    if cells > MAX_CELLS:
        raise UsageError(f"{kind} code {source} has n * L = {cells} cells, "
                         f"more than the {MAX_CELLS} this tool accepts")
    return codec


def _load_code(path: str):
    """The parity check of a TE blob, or the codec of a validated dc/ted
    JSON descriptor of at most `MAX_CELLS` cells, built by the construct
    mode of its kind from the integer options that mode requires."""
    blob = Path(path).read_bytes()
    if blob.startswith(TeParityCheck.MAGIC):
        return TeParityCheck.from_bytes(blob)
    try:
        desc = json.loads(blob)
    except ValueError:
        raise UsageError(f"{path} is neither a parity-check blob nor a JSON "
                         f"codec descriptor") from None
    if not isinstance(desc, dict):
        raise UsageError(f"codec descriptor in {path} must be a JSON object")
    kind = desc.get("kind")
    if kind not in ("dc", "ted"):
        raise UsageError(f"unknown codec kind {kind!r}")
    required, _, build = _READS["construct"][f"--code {kind}"]
    params = {}
    for key in required.split():
        params[key] = desc.get(key)
        if type(params[key]) is not int:
            raise UsageError(f"{kind} descriptor needs an integer {key!r}, "
                             f"got {params[key]!r}")
    # checked once the constructor has refused every invalid descriptor
    return _check_cells(kind, build(argparse.Namespace(**params)), f"in {path}")


def load_codec(path: str):
    """`_load_code`, a TE parity check taken as its codec."""
    code = _load_code(path)
    return TeCodec(code) if isinstance(code, TeParityCheck) else code


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args, build) -> int:
    H = build(args)
    if not isinstance(H, TeParityCheck):    # a dc/ted codec
        desc = _check_cells(args.code, H, "asked for").descriptor()
        desc["message_bits"] = H.message_bits
        _write(args, json.dumps(desc, indent=2) + "\n")
        return 0
    if args.out:
        Path(args.out).write_bytes(H.to_bytes())
        sys.stdout.write(f"wrote {args.out}: provenance={H.provenance} n={H.n} L={H.L} "
                         f"redundancy={H.redundancy} dimension={H.dimension}\n")
    if args.dump or not args.out:
        sys.stdout.write(H.dump_text())
    return 0


def cmd_encode(args, _) -> int:
    codec = load_codec(args.code_file)
    text = Path(args.infile).read_text() if args.infile else sys.stdin.read()
    digits = "".join(text.split())
    bad = digits.lstrip("01")
    if bad:
        raise UsageError(f"message text may hold only 0, 1 and whitespace, "
                         f"found {bad[0]!r}")
    bits = list(map(int, digits))
    if len(bits) != codec.message_bits:
        raise UsageError(f"codec expects {codec.message_bits} message bits, got {len(bits)}")
    _write(args, format_bit_array(codec.encode(bits)))
    return 0


def cmd_decode(args, _) -> int:
    codec = load_codec(args.code_file)
    text = Path(args.infile).read_text() if args.infile else sys.stdin.read()
    decoded = codec.decode(parse_ragged(text))
    _write(args, "".join(map(str, codec.message_of(decoded))) + "\n" if args.emit_message
           else format_bit_array(decoded))
    return 0


def cmd_channel(args, spec_of) -> int:
    if args.pattern is not None and args.seed is not None:
        raise UsageError("channel --kind te does not read --seed with --pattern")
    text = Path(args.infile).read_text() if args.infile else sys.stdin.read()
    x = parse_bit_array(text)
    spec = spec_of(args)
    if args.pattern is not None:
        try:
            instance = tuple(int(v) for v in args.pattern.split(","))
        except ValueError:
            raise UsageError(f"--pattern takes comma-separated erasure counts, "
                             f"got {args.pattern!r}") from None
    else:
        instance = random_instance(spec, x.n, x.L, random.Random(args.seed or 0))
    out = apply_channel(x, spec, instance)
    sys.stderr.write(f"instance: {instance}\n")
    _write(args, format_ragged(out))
    return 0


def cmd_report(args, run) -> int:
    """bounds and oracle: write the mode's line, or a table's rows."""
    out = run(args)
    _write(args, out + "\n" if isinstance(out, str)
           else render_rows(out, args.format or "text"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # No option has a default, so `_check_reads` sees each one given; the
    # commands apply theirs (--seed 0, --messages 20, --format text,
    # --n-min 3, --n-max 16).
    parser = argparse.ArgumentParser(prog="arraycodes", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    def ints(p, *names):
        for name in names:
            p.add_argument(f"--{name}", type=int)

    p = add("construct", help="build a code and emit its descriptor")
    ints(p, "n", "L", "e", "t", "d")
    p.add_argument("--out")
    p.add_argument("--code", required=True, choices=_choices("construct", "--code"))
    p.add_argument("--raw", action="store_true",
                   help="hasse: raw derivative stack, no reduced variants")
    p.add_argument("--dump", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = add("encode", help="message bits -> array")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.add_argument("--code-file", required=True)
    p.set_defaults(func=cmd_encode)

    p = add("decode", help="received array -> codeword (or message)")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.add_argument("--code-file", required=True)
    p.add_argument("--emit-message", action="store_true")
    p.set_defaults(func=cmd_decode)

    p = add("channel", help="apply a channel instance to an array")
    ints(p, "e", "t", "s")
    p.add_argument("--seed", type=int)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.add_argument("--kind", required=True, choices=_choices("channel", "--kind"))
    p.add_argument("--pattern", help="explicit te pattern, comma-separated")
    p.set_defaults(func=cmd_channel)

    p = add("verify", help="min-distance or round-trip verification")
    ints(p, "e", "t", "s", "d")
    p.add_argument("--seed", type=int)
    p.add_argument("--code-file", required=True)
    p.add_argument("--roundtrip", action="store_true")
    p.add_argument("--kind", choices=_choices("verify", "--kind"))
    p.add_argument("--messages", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-work", type=int)
    p.set_defaults(func=lambda args, run: run(args))

    p = add("bounds", help="evaluate a bound or regenerate a table")
    ints(p, "n", "L", "t", "s", "d")
    p.add_argument("--format", choices=("text", "records"))
    p.add_argument("--out")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--bound", choices=_choices("bounds", "--bound"))
    which.add_argument("--table", choices=_choices("bounds", "--table"))
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    ints(p, "r", "a-nd", "m-s", "m-size")
    p.set_defaults(func=cmd_report)

    p = add("oracle", help="run a brute-force oracle, freeze the value")
    ints(p, "n", "L", "s", "d", "r")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--which", required=True, choices=_choices("oracle", "--which"))
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _check_reads(args))
    except (UsageError, ValueError, OSError, RuntimeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ArrayCodeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
