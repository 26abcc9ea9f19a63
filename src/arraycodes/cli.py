"""Command-line interface.

Subcommands: construct, encode, decode, channel, verify, bounds, oracle.
Each subcommand registers only the options it reads, so any other option
is an argparse error (exit 2); options must be spelled in full, as no
parser takes abbreviations.  verify's two modes read different options:
--d only without --roundtrip, the channel and round-trip options only with
it, and an option of the other mode is a usage error (exit 2) too.
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

from . import basecodes
from .arrays import (BitArray, format_bit_array, format_ragged, parse_bit_array,
                     parse_ragged)
from .bounds import (a_n_d_brute, ball_count_brute, claim8_bound,
                     dc_bound_part1, dc_bound_part2, dc_bound_part3,
                     m_s_brute, singleton_te, te_sphere_packing,
                     ted_upper_bound, v_te_general)
from .channel import (DEFAULT_MAX_WORK, ChannelSpec, apply_channel,
                      random_instance, roundtrip_harness)
from .dc import DcCode
from .errors import ArrayCodeError
from .tables import render_rows, table_i, table_ii, table_iii
from .te import (TeCodec, TeParityCheck, construct_1, construct_claim5,
                 construct_claim7, construct_even, construct_hasse,
                 construct_hasse_raw, construct_parity, verify_min_distance)
from .ted import TedCode


class UsageError(Exception):
    pass


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name} is required here")


def build_te_code(args) -> TeParityCheck:
    kind = args.code
    if kind == "construction-1":
        _need(args, "n", "d")
        if args.d % 2 == 0 or args.d < 3:
            raise UsageError("construction-1 needs an odd d >= 3")
        t = (args.d - 1) // 2
        if args.d == 3:
            base = basecodes.hamming_pcm(args.n)
        else:
            base, _ = basecodes.bch_pcm(args.n * t, args.d)
        return construct_1(base, args.n, t)
    if kind == "even-ext":
        _need(args, "n", "d")
        if args.d == 2:
            return construct_parity(args.n, 1 if args.L is None else args.L)
        if args.d % 2 or args.d < 4:
            raise UsageError("even-ext needs an even d >= 4 (or d = 2)")
        t = (args.d - 2) // 2
        if args.d == 4:
            base = basecodes.extended_hamming_pcm(args.n)
        else:
            length = args.n * t + 1
            g = basecodes.bch_generator(basecodes.bch_degree(length), args.d - 1,
                                        with_parity_factor=True)
            base = basecodes.cyclic_pcm(g, length)
        return construct_even(base, args.n, t)
    if kind == "claim-5":
        _need(args, "n")
        return construct_claim5(args.n)
    if kind == "claim-7":
        _need(args, "n")
        return construct_claim7(args.n)
    _need(args, "n", "L", "e")    # hasse, the last choice
    build = construct_hasse_raw if args.raw else construct_hasse
    return build(args.n, args.L, args.e)


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
        _need(args, "n", "L", "t")
        if args.code == "dc":
            codec = DcCode(args.n, args.L, args.t)
        else:
            _need(args, "e")
            codec = TedCode(args.n, args.L, args.t, args.e)
        desc = _check_cells(args.code, codec, "asked for").descriptor()
        desc["message_bits"] = codec.message_bits
        _write(args, json.dumps(desc, indent=2) + "\n")
        return 0
    H = build_te_code(args)
    if args.out:
        Path(args.out).write_bytes(H.to_bytes())
        summary = (f"wrote {args.out}: provenance={H.provenance} n={H.n} L={H.L} "
                   f"redundancy={H.redundancy} dimension={H.dimension}\n")
        sys.stdout.write(summary)
        if args.dump:
            sys.stdout.write(H.dump_text())
    else:
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
    x = codec.encode(bits)
    _write(args, format_bit_array(x))
    return 0


def cmd_decode(args) -> int:
    codec = load_codec(args.code_file)
    text = Path(args.infile).read_text() if args.infile else sys.stdin.read()
    decoded = codec.decode(parse_ragged(text))
    if args.emit_message:
        _write(args, "".join(map(str, codec.message_of(decoded))) + "\n")
    else:
        _write(args, format_bit_array(decoded))
    return 0


def _channel_spec(args) -> ChannelSpec:
    _need(args, "kind")
    if args.kind == "te":
        _need(args, "e")
        return ChannelSpec("te", e=args.e)
    if args.kind == "del":
        _need(args, "t", "s")
        if args.t < 1 or args.s < 1:
            raise UsageError("the del channel needs --t and --s of at least 1")
        return ChannelSpec("del", t=args.t, s=args.s)
    _need(args, "t", "s", "e")
    if args.t >= 1 and args.s < 1:
        raise UsageError("the ted channel needs --s of at least 1 when --t is at least 1")
    return ChannelSpec("ted", t=args.t, s=args.s, e=args.e)


def cmd_channel(args) -> int:
    text = Path(args.infile).read_text() if args.infile else sys.stdin.read()
    x = parse_bit_array(text)
    spec = _channel_spec(args)
    if args.pattern is not None:
        if spec.kind != "te":
            raise UsageError("--pattern applies to the te channel only")
        instance = tuple(int(v) for v in args.pattern.split(","))
    else:
        instance = random_instance(spec, x.n, x.L, random.Random(args.seed))
    out = apply_channel(x, spec, instance)
    sys.stderr.write(f"instance: {instance}\n")
    _write(args, format_ragged(out))
    return 0


# The options only a round trip reads; a distance check reads --d alone.
_ROUNDTRIP_OPTIONS = ("kind", "e", "t", "s", "seed", "messages", "exhaustive", "max_work")


def _reject_unread(args, names, mode):
    given = [f"--{name.replace('_', '-')}" for name in names
             if getattr(args, name) is not None]
    if given:
        raise UsageError(f"verify {mode} does not read {', '.join(given)}")


def cmd_verify(args) -> int:
    if args.roundtrip:
        _reject_unread(args, ("d",), "--roundtrip")
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
                                   exhaustive=bool(args.exhaustive),
                                   seed=0 if args.seed is None else args.seed,
                                   instances=args.max_work, max_work=cap)
        sys.stdout.write(record.summary() + "\n")
        if record.first_counterexample:
            sys.stdout.write(f"counterexample: {record.first_counterexample}\n")
        return 0 if record.failures == 0 else 1
    _reject_unread(args, _ROUNDTRIP_OPTIONS, "without --roundtrip")
    # The distance check reads the parity check alone: no encoder tables.
    H = _load_code(args.code_file)
    if not isinstance(H, TeParityCheck):
        raise UsageError("min-distance verification applies to TE parity checks")
    _need(args, "d")
    result = verify_min_distance(H, args.d)
    exact = "exactly" if result.exact else "at least"
    sys.stdout.write(f"minimum TE distance {exact} {result.distance}"
                     + (f" (witness pattern {result.witness})" if result.witness else "")
                     + f"; {result.patterns} patterns examined\n")
    ok = result.distance >= args.d
    return 0 if ok else 1


def cmd_bounds(args) -> int:
    fmt = args.format
    if args.table:
        n_values = range(args.n_min, args.n_max + 1)
        if args.table == "I":
            rows = table_i(n_values, (2, 3, 4, 5))
        elif args.table == "II":
            rows = table_ii(list(n_values))
        else:
            _need(args, "L", "t")
            rows = table_iii([(n, args.L, args.t) for n in n_values])
        _write(args, render_rows(rows, fmt))
        return 0
    name = args.bound
    if name == "v-te":
        _need(args, "r", "n", "L")
        _write(args, f"name=v-te n={args.n} L={args.L} r={args.r} "
               f"value={v_te_general(args.r, args.n, args.L)}\n")
        return 0
    if name == "sphere":
        _need(args, "n", "L", "d")
        info = te_sphere_packing(args.n, args.L, args.d)
        _write(args, info["report"].record() + "\n")
        return 0
    if name == "column-split":
        _need(args, "n", "d")
        a = args.a_nd if args.a_nd is not None else a_n_d_brute(args.n, args.d)
        prov = "supplied" if args.a_nd is not None else "brute-force"
        _write(args, claim8_bound(args.n, args.d, a, prov).record() + "\n")
        return 0
    if name == "singleton":
        _need(args, "n", "L", "m_size")
        _write(args, f"name=singleton n={args.n} L={args.L} M={args.m_size} "
               f"value={singleton_te(args.n, args.L, args.m_size)}\n")
        return 0
    if name == "dc-1":
        _need(args, "n", "L", "t", "s")
        m = args.m_s if args.m_s is not None else m_s_brute(args.L, args.s)
        prov = "supplied" if args.m_s is not None else "brute-force"
        _write(args, dc_bound_part1(args.n, args.L, args.t, args.s, m, prov).record() + "\n")
        return 0
    if name == "dc-23":
        _need(args, "n", "L", "t", "s")
        if args.s == 1:
            info = dc_bound_part3(args.n, args.L, args.t)
        else:
            info = dc_bound_part2(args.n, args.L, args.t, args.s)
        _write(args, info["report"].record() + "\n")
        return 0
    _need(args, "n", "L")   # ted-upper, the last choice
    info = ted_upper_bound(args.n, args.L)
    _write(args, info["report"].record()
           + f" finite={float(info['finite']):.6g}"
           + f" asymptotic={float(info['asymptotic']):.6g}\n")
    return 0


def cmd_oracle(args) -> int:
    which = args.which
    lines = []
    if which == "ball":
        _need(args, "n", "L", "r")
        rng = random.Random(args.seed)
        x = BitArray.from_lists([[rng.randrange(2) for _ in range(args.L)]
                                 for _ in range(args.n)])
        value = ball_count_brute(x, args.r)
        lines.append(f"oracle=ball n={args.n} L={args.L} r={args.r} "
                     f"seed={args.seed} value={value}")
    elif which == "m-s":
        _need(args, "L", "s")
        lines.append(f"oracle=m-s L={args.L} s={args.s} value={m_s_brute(args.L, args.s)}")
    else:   # a-n-d
        _need(args, "n", "d")
        lines.append(f"oracle=a-n-d n={args.n} d={args.d} value={a_n_d_brute(args.n, args.d)}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.add_argument("--kind", required=True, choices=("te", "del", "ted"))
    p.add_argument("--pattern", help="explicit te pattern, comma-separated")
    p.set_defaults(func=cmd_channel)

    # The round-trip options default to None, so that a distance check can
    # tell one that was given; a round trip reads a missing --seed as 0,
    # --messages as 20.
    p = add("verify", help="min-distance or round-trip verification")
    ints(p, "e", "t", "s", "d")
    p.add_argument("--seed", type=int)
    p.add_argument("--code-file", required=True)
    p.add_argument("--roundtrip", action="store_true")
    p.add_argument("--kind", choices=("te", "del", "ted"))
    p.add_argument("--messages", type=int)
    p.add_argument("--exhaustive", action="store_true", default=None)
    p.add_argument("--max-work", type=int)
    p.set_defaults(func=cmd_verify)

    p = add("bounds", help="evaluate a bound or regenerate a table")
    ints(p, "n", "L", "t", "s", "d")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--out")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--bound", choices=("v-te", "sphere", "column-split",
                                           "singleton", "dc-1", "dc-23", "ted-upper"))
    which.add_argument("--table", choices=("I", "II", "III"))
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=16)
    ints(p, "r", "a-nd", "m-s", "m-size")
    p.set_defaults(func=cmd_bounds)

    p = add("oracle", help="run a brute-force oracle, freeze the value")
    ints(p, "n", "L", "s", "d", "r")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--which", required=True, choices=("ball", "m-s", "a-n-d"))
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, RuntimeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ArrayCodeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
