"""Command-line interface.

Subcommands: construct, encode, decode, channel, verify, bounds, oracle.
Each subcommand registers only the options it reads, so any other option
is an argparse error (exit 2); options must be spelled in full, as no
parser takes abbreviations.  A selector picks each subcommand's mode
(construct --code, channel --kind, bounds --bound or --table, oracle
--which, verify --roundtrip and --kind), and a mode reads the options in
its row of `_READS`: a missing required option or any other option is a
usage error (exit 2).
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
from .channel import (DEFAULT_MAX_WORK, ChannelSpec, apply_channel,
                      random_instance, roundtrip_harness)
from .dc import DcCode
from .errors import ArrayCodeError
from .tables import render_rows, table_i, table_ii, table_iii
from .te import (TeCodec, TeParityCheck, construct_claim5, construct_claim7,
                 construct_hasse, construct_hasse_raw, construct_interleaved,
                 verify_min_distance)
from .ted import TedCode


class UsageError(Exception):
    pass


# The options each mode requires, then those it may also take, by argparse
# dest.  A mode is named by its selector as spelled on the command line, and
# it also reads its subcommand's --in, --out and --code-file.  encode and
# decode have one mode each, which reads every option they register.
_READS = {
    "construct": {
        "--code construction-1": ("n d", "dump"),
        "--code even-ext": ("n d", "L dump"),
        "--code claim-5": ("n", "dump"),
        "--code claim-7": ("n", "dump"),
        "--code hasse": ("n L e", "raw dump"),
        "--code dc": ("n L t", ""),
        "--code ted": ("n L t e", ""),
    },
    "channel": {
        "--kind te": ("e", "seed pattern"),
        "--kind del": ("t s", "seed"),
        "--kind ted": ("t s e", "seed"),
    },
    "verify": {
        "without --roundtrip": ("d", ""),
        "--roundtrip --kind te": ("e", "seed messages exhaustive max_work"),
        "--roundtrip --kind del": ("t s", "seed messages exhaustive max_work"),
        "--roundtrip --kind ted": ("t s e", "seed messages exhaustive max_work"),
    },
    "bounds": {
        "--table I": ("", "format n_min n_max"),
        "--table II": ("", "format n_min n_max"),
        "--table III": ("L t", "format n_min n_max"),
        "--bound v-te": ("r n L", ""),
        "--bound sphere": ("n L d", ""),
        "--bound column-split": ("n d", "a_nd"),
        "--bound singleton": ("n L m_size", ""),
        "--bound dc-1": ("n L t s", "m_s"),
        "--bound dc-23": ("n L t s", ""),
        "--bound ted-upper": ("n L", ""),
    },
    "oracle": {
        "--which ball": ("n L r", "seed"),
        "--which m-s": ("L s", ""),
        "--which a-n-d": ("n d", ""),
    },
}


def _check_reads(args) -> None:
    """Raise `UsageError` unless the mode `args` selects, its row of
    `_READS`, has every option it requires and no option it does not read."""
    if args.command == "verify":
        if args.roundtrip and args.kind is None:
            raise UsageError("--kind is required here")
        mode = f"--roundtrip --kind {args.kind}" if args.roundtrip else "without --roundtrip"
    elif args.command in _READS:
        flag = next(f for f in ("code", "kind", "table", "bound", "which")
                    if getattr(args, f, None))
        mode = f"--{flag} {getattr(args, flag)}"
    else:
        return
    required, optional = _READS[args.command][mode]
    for name in required.split():
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required here")
    reads = {"command", "func", "infile", "out", "code_file", *required.split(),
             *optional.split(), *(word[2:] for word in mode.split() if word[:2] == "--")}
    unread = [f"--{name.replace('_', '-')}" for name, value in vars(args).items()
              if name not in reads and value is not None and value is not False]
    if unread:
        raise UsageError(f"{args.command} {mode} does not read {', '.join(unread)}")


def build_te_code(args) -> TeParityCheck:
    code, n, d = args.code, args.n, args.d
    if code == "construction-1" and (d % 2 == 0 or d < 3):
        raise UsageError("construction-1 needs an odd d >= 3")
    if code == "even-ext" and (d % 2 or d < 2):
        raise UsageError("even-ext needs an even d >= 4 (or d = 2)")
    if code == "even-ext" and d > 2 and args.L is not None:
        raise UsageError("construct --code even-ext does not read --L unless --d 2")
    if code in ("construction-1", "even-ext"):
        return construct_interleaved(n, d, 1 if args.L is None else args.L)
    if code == "hasse":
        return (construct_hasse_raw if args.raw else construct_hasse)(n, args.L, args.e)
    return construct_claim5(n) if code == "claim-5" else construct_claim7(n)


# The integer parameters each JSON codec descriptor must carry.
_DESCRIPTOR_KEYS = {"dc": ("n", "L", "t"), "ted": ("n", "L", "t", "e")}

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
    JSON descriptor of at most `MAX_CELLS` cells."""
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
    if not isinstance(kind, str) or kind not in _DESCRIPTOR_KEYS:
        raise UsageError(f"unknown codec kind {kind!r}")
    params = []
    for key in _DESCRIPTOR_KEYS[kind]:
        value = desc.get(key)
        if type(value) is not int:
            raise UsageError(f"{kind} descriptor needs an integer {key!r}, "
                             f"got {value!r}")
        params.append(value)
    # checked once the constructor has refused every invalid descriptor
    return _check_cells(kind, DcCode(*params) if kind == "dc" else TedCode(*params),
                        f"in {path}")


def load_codec(path: str):
    """`_load_code`, a TE parity check taken as its codec."""
    code = _load_code(path)
    return TeCodec(code) if isinstance(code, TeParityCheck) else code


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    if args.code in ("dc", "ted"):
        codec = (DcCode(args.n, args.L, args.t) if args.code == "dc"
                 else TedCode(args.n, args.L, args.t, args.e))
        desc = _check_cells(args.code, codec, "asked for").descriptor()
        desc["message_bits"] = codec.message_bits
        _write(args, json.dumps(desc, indent=2) + "\n")
        return 0
    H = build_te_code(args)
    if args.out:
        Path(args.out).write_bytes(H.to_bytes())
        sys.stdout.write(f"wrote {args.out}: provenance={H.provenance} n={H.n} L={H.L} "
                         f"redundancy={H.redundancy} dimension={H.dimension}\n")
    if args.dump or not args.out:
        sys.stdout.write(H.dump_text())
    return 0


def cmd_encode(args) -> int:
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


def cmd_decode(args) -> int:
    codec = load_codec(args.code_file)
    text = Path(args.infile).read_text() if args.infile else sys.stdin.read()
    decoded = codec.decode(parse_ragged(text))
    _write(args, "".join(map(str, codec.message_of(decoded))) + "\n" if args.emit_message
           else format_bit_array(decoded))
    return 0


def _channel_spec(args) -> ChannelSpec:
    if args.kind == "del" and (args.t < 1 or args.s < 1):
        raise UsageError("the del channel needs --t and --s of at least 1")
    if args.kind == "ted" and args.t >= 1 and args.s < 1:
        raise UsageError("the ted channel needs --s of at least 1 when --t is at least 1")
    return ChannelSpec(args.kind, e=args.e or 0, t=args.t or 0, s=args.s or 0)


def cmd_channel(args) -> int:
    if args.pattern is not None and args.seed is not None:
        raise UsageError("channel --kind te does not read --seed with --pattern")
    text = Path(args.infile).read_text() if args.infile else sys.stdin.read()
    x = parse_bit_array(text)
    spec = _channel_spec(args)
    if args.pattern is not None:
        instance = tuple(int(v) for v in args.pattern.split(","))
    else:
        instance = random_instance(spec, x.n, x.L, random.Random(args.seed or 0))
    out = apply_channel(x, spec, instance)
    sys.stderr.write(f"instance: {instance}\n")
    _write(args, format_ragged(out))
    return 0


def cmd_verify(args) -> int:
    if args.roundtrip:
        if args.max_work is not None and args.max_work < 1:
            raise UsageError(f"--max-work must be at least 1, got {args.max_work}")
        codec = load_codec(args.code_file)
        spec = _channel_spec(args)
        if isinstance(codec, TeCodec) != (spec.kind == "te"):
            raise UsageError(f"a {codec.descriptor()['kind']} codec cannot "
                             f"round-trip the {spec.kind} channel; TE codes take "
                             f"--kind te, DC and TED codes --kind del or ted")
        # --max-work caps the exhaustive enumeration and sets the number of
        # random instances.
        cap = DEFAULT_MAX_WORK if args.max_work is None else args.max_work
        record = roundtrip_harness(codec, spec,
                                   messages=20 if args.messages is None else args.messages,
                                   exhaustive=args.exhaustive, seed=args.seed or 0,
                                   instances=args.max_work, max_work=cap)
        sys.stdout.write(record.summary() + "\n")
        if record.first_counterexample:
            sys.stdout.write(f"counterexample: {record.first_counterexample}\n")
        return 0 if record.failures == 0 else 1
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


def cmd_bounds(args) -> int:
    if args.table:
        n_values = range(3 if args.n_min is None else args.n_min,
                         (16 if args.n_max is None else args.n_max) + 1)
        if args.table == "I":
            rows = table_i(n_values, (2, 3, 4, 5))
        elif args.table == "II":
            rows = table_ii(list(n_values))
        else:
            rows = table_iii([(n, args.L, args.t) for n in n_values])
        _write(args, render_rows(rows, args.format or "text"))
        return 0
    name = args.bound
    if name == "v-te":
        line = (f"name=v-te n={args.n} L={args.L} r={args.r} "
                f"value={v_te_general(args.r, args.n, args.L)}")
    elif name == "sphere":
        line = te_sphere_packing(args.n, args.L, args.d)["report"].record()
    elif name == "column-split":
        a = args.a_nd if args.a_nd is not None else a_n_d_brute(args.n, args.d)
        prov = "supplied" if args.a_nd is not None else "brute-force"
        line = claim8_bound(args.n, args.d, a, prov).record()
    elif name == "singleton":
        line = (f"name=singleton n={args.n} L={args.L} M={args.m_size} "
                f"value={singleton_te(args.n, args.L, args.m_size)}")
    elif name == "dc-1":
        m = args.m_s if args.m_s is not None else m_s_brute(args.L, args.s)
        prov = "supplied" if args.m_s is not None else "brute-force"
        line = dc_bound_part1(args.n, args.L, args.t, args.s, m, prov).record()
    elif name == "dc-23":
        info = (dc_bound_part3(args.n, args.L, args.t) if args.s == 1
                else dc_bound_part2(args.n, args.L, args.t, args.s))
        line = info["report"].record()
    else:   # ted-upper
        info = ted_upper_bound(args.n, args.L)
        line = (info["report"].record() + f" finite={float(info['finite']):.6g}"
                + f" asymptotic={float(info['asymptotic']):.6g}")
    _write(args, line + "\n")
    return 0


def cmd_oracle(args) -> int:
    if args.which == "ball":
        seed = args.seed or 0
        rng = random.Random(seed)
        # the shape from the options, not read off the rows, so a negative
        # n or L is an error and not an empty array
        rows = tuple(_row_to_int([rng.randrange(2) for _ in range(args.L)])
                     for _ in range(args.n))
        x = BitArray(args.n, args.L, rows)
        line = (f"oracle=ball n={args.n} L={args.L} r={args.r} seed={seed} "
                f"value={ball_count_brute(x, args.r)}")
    elif args.which == "m-s":
        line = f"oracle=m-s L={args.L} s={args.s} value={m_s_brute(args.L, args.s)}"
    else:   # a-n-d
        line = f"oracle=a-n-d n={args.n} d={args.d} value={a_n_d_brute(args.n, args.d)}"
    _write(args, line + "\n")
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
    p.add_argument("--code", required=True,
                   choices=("construction-1", "even-ext", "claim-5", "claim-7",
                            "hasse", "dc", "ted"))
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
    p.add_argument("--kind", required=True, choices=("te", "del", "ted"))
    p.add_argument("--pattern", help="explicit te pattern, comma-separated")
    p.set_defaults(func=cmd_channel)

    p = add("verify", help="min-distance or round-trip verification")
    ints(p, "e", "t", "s", "d")
    p.add_argument("--seed", type=int)
    p.add_argument("--code-file", required=True)
    p.add_argument("--roundtrip", action="store_true")
    p.add_argument("--kind", choices=("te", "del", "ted"))
    p.add_argument("--messages", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-work", type=int)
    p.set_defaults(func=cmd_verify)

    p = add("bounds", help="evaluate a bound or regenerate a table")
    ints(p, "n", "L", "t", "s", "d")
    p.add_argument("--format", choices=("text", "records"))
    p.add_argument("--out")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--bound", choices=("v-te", "sphere", "column-split",
                                           "singleton", "dc-1", "dc-23", "ted-upper"))
    which.add_argument("--table", choices=("I", "II", "III"))
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    ints(p, "r", "a-nd", "m-s", "m-size")
    p.set_defaults(func=cmd_bounds)

    p = add("oracle", help="run a brute-force oracle, freeze the value")
    ints(p, "n", "L", "s", "d", "r")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--which", required=True, choices=("ball", "m-s", "a-n-d"))
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_reads(args)
        return args.func(args)
    except (UsageError, ValueError, OSError, RuntimeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ArrayCodeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
