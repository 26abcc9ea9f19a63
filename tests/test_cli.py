import json
import os
import random
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import arraycodes
from arraycodes.arrays import BitArray
from arraycodes.bounds import ball_count_brute
from arraycodes.cli import (_READS, MAX_CELLS, UsageError, _check_reads, build_parser,
                            load_codec, main)
from arraycodes.dc import DcCode
from arraycodes.te import TeCodec, construct_hasse, construct_hasse_raw, construct_interleaved


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_and_verify_te(tmp_path, capsys):
    code_file = tmp_path / "ham.tepc"
    rc, out, _ = run(capsys, "construct", "--code", "construction-1",
                     "--n", "7", "--d", "3", "--out", str(code_file))
    assert rc == 0 and "redundancy=3" in out
    rc, out, _ = run(capsys, "verify", "--code-file", str(code_file), "--d", "3")
    assert rc == 0 and "exactly 3" in out
    # asking for distance 4 must fail with exit status 1
    rc, out, _ = run(capsys, "verify", "--code-file", str(code_file), "--d", "4")
    assert rc == 1
    rc, out, _ = run(capsys, "verify", "--code-file", str(code_file), "--roundtrip",
                     "--kind", "te", "--e", "2", "--exhaustive", "--messages", "1")
    assert rc == 0 and "failures=0" in out


def test_construct_even_ext_on_a_bch_base(tmp_path, capsys):
    # d = 6 on 3 rows: the base is the window of n*t + 1 = 7 coordinates
    # of the cyclic code generated by (x+1)m1(x)m3(x), of degree 7, a
    # redundancy the degree check in bch_pcm rejects at this length
    code_file = tmp_path / "even.tepc"
    rc, out, _ = run(capsys, "construct", "--code", "even-ext",
                     "--n", "3", "--d", "6", "--out", str(code_file))
    assert rc == 0 and "n=3 L=5 redundancy=7" in out
    rc, out, _ = run(capsys, "verify", "--code-file", str(code_file), "--d", "6")
    assert rc == 0 and "exactly 6" in out


def test_te_encode_channel_decode(tmp_path, capsys):
    code_file = tmp_path / "code.tepc"
    run(capsys, "construct", "--code", "construction-1", "--n", "7", "--d", "3",
        "--out", str(code_file))
    msg = "".join(str(random.Random(0).randrange(2)) for _ in range(11))
    msg_file = tmp_path / "msg.txt"
    msg_file.write_text(msg + "\n")
    arr_file = tmp_path / "arr.txt"
    rc, _, _ = run(capsys, "encode", "--code-file", str(code_file),
                   "--in", str(msg_file), "--out", str(arr_file))
    assert rc == 0
    recv_file = tmp_path / "recv.txt"
    rc, _, _ = run(capsys, "channel", "--kind", "te", "--e", "2",
                   "--pattern", "1,1,0,0,0,0,0",
                   "--in", str(arr_file), "--out", str(recv_file))
    # the erased rows are written short, as the deletion channel writes them
    header, *rows = arr_file.read_text().splitlines()
    short = [rows[0][:-1], rows[1][:-1], *rows[2:]]
    assert rc == 0 and recv_file.read_text() == "\n".join([header, *short]) + "\n"
    # a '?' tail, as earlier writers marked an erased cell, reads the same
    marked = tmp_path / "marked.txt"
    marked.write_text("\n".join([header, short[0] + "?", short[1] + "?", *rows[2:]]))
    for received in (recv_file, marked):
        rc, out, _ = run(capsys, "decode", "--code-file", str(code_file),
                         "--in", str(received), "--emit-message")
        assert rc == 0 and out.strip() == msg


def test_dc_codec_cli_roundtrip(tmp_path, capsys):
    codec_file = tmp_path / "dc.json"
    rc, _, _ = run(capsys, "construct", "--code", "dc", "--n", "7", "--L", "5",
                   "--t", "2", "--out", str(codec_file))
    assert rc == 0
    desc = json.loads(codec_file.read_text())
    assert desc["message_bits"] == 29
    msg_file = tmp_path / "msg.txt"
    msg = "".join(str(random.Random(5).randrange(2)) for _ in range(29))
    msg_file.write_text(msg)
    arr_file = tmp_path / "arr.txt"
    run(capsys, "encode", "--code-file", str(codec_file),
        "--in", str(msg_file), "--out", str(arr_file))
    recv_file = tmp_path / "recv.txt"
    rc, _, _ = run(capsys, "channel", "--kind", "del", "--t", "2", "--s", "1",
                   "--seed", "3", "--in", str(arr_file), "--out", str(recv_file))
    assert rc == 0
    rc, out, _ = run(capsys, "decode", "--code-file", str(codec_file),
                     "--in", str(recv_file), "--emit-message")
    assert rc == 0 and out.strip() == msg


def test_roundtrip_verify_exit_codes(tmp_path, capsys):
    codec_file = tmp_path / "dc.json"
    run(capsys, "construct", "--code", "dc", "--n", "5", "--L", "4", "--t", "1",
        "--out", str(codec_file))
    rc, out, _ = run(capsys, "verify", "--code-file", str(codec_file),
                     "--roundtrip", "--kind", "del", "--t", "1", "--s", "1",
                     "--messages", "3", "--exhaustive")
    assert rc == 0 and "failures=0" in out
    # over-capacity damage: failures reported, exit status 1
    rc, out, _ = run(capsys, "verify", "--code-file", str(codec_file),
                     "--roundtrip", "--kind", "del", "--t", "2", "--s", "1",
                     "--messages", "2", "--exhaustive")
    assert rc == 1 and "counterexample" in out


def test_bounds_and_tables(capsys):
    rc, out, _ = run(capsys, "bounds", "--bound", "v-te", "--n", "7", "--L", "3", "--r", "2")
    assert rc == 0 and "value=43" in out
    rc, out, _ = run(capsys, "bounds", "--bound", "sphere", "--n", "7", "--L", "2", "--d", "3")
    assert rc == 0 and "value=2048" in out
    rc, out, _ = run(capsys, "bounds", "--table", "I", "--n-min", "3", "--n-max", "4",
                     "--format", "records")
    assert rc == 0
    assert all(line.startswith("table=I") for line in out.strip().splitlines())


def test_oracle(capsys):
    rc, out, _ = run(capsys, "oracle", "--which", "m-s", "--L", "4", "--s", "1")
    assert rc == 0 and "value=4" in out
    rc, out, _ = run(capsys, "oracle", "--which", "a-n-d", "--n", "7", "--d", "3")
    assert rc == 0 and "value=16" in out
    rc, out, _ = run(capsys, "oracle", "--which", "a-n-d", "--n", "3", "--d", "5")
    assert rc == 0 and out == "oracle=a-n-d n=3 d=5 value=1\n"


# --- round trips through the CLI ----------------------------------------------

# Each round trip the CLI must pass: its id, the options of the `construct`
# line that builds the code, those of the `verify --roundtrip` line run on
# it, and the trials that line reports, every one decoded.
CLI_ROUNDTRIPS = [
    # exhaustive, one code per channel family
    ("te hasse 16 4 4", "--code hasse --n 16 --L 4 --e 4",
     "--kind te --e 4 --exhaustive --messages 1", 4845),
    ("ted 5 7 2 1", "--code ted --n 5 --L 7 --t 2 --e 1",
     "--kind ted --t 2 --s 1 --e 1 --exhaustive --messages 1", 3011),
    ("dc 7 5 2", "--code dc --n 7 --L 5 --t 2", "--kind del --t 2 --s 1 --exhaustive --messages 1",
     560),
    # the base codes, each under every pattern of one erasure fewer than its
    # distance (`BASE_CODE_DISTANCES`)
    ("construction-1 n5 d5", "--code construction-1 --n 5 --d 5",
     "--kind te --e 4 --exhaustive --messages 2", 252),
    ("even-ext n5 d6", "--code even-ext --n 5 --d 6", "--kind te --e 5 --exhaustive --messages 2",
     504),
    ("claim-5 n9", "--code claim-5 --n 9", "--kind te --e 4 --exhaustive --messages 2", 1430),
    ("construction-1 n5 d7", "--code construction-1 --n 5 --d 7",
     "--kind te --e 6 --exhaustive --messages 2", 924),
    # 31 x 31 arrays; the TED code runs the tail path (rows missing more than
    # one bit) over GF(2^7)
    ("dc 31 31 8", "--code dc --n 31 --L 31 --t 8", "--kind del --t 8 --s 1 --messages 3 "
     "--max-work 300", 900),
    ("ted 31 31 4 2", "--code ted --n 31 --L 31 --t 4 --e 2",
     "--kind ted --t 4 --s 1 --e 2 --messages 3 --max-work 300", 900),
    # long rows: VT sums by masked popcounts (rows past 31 positions), outer
    # codes by chunked table lookups; TED over GF(2^12)
    ("ted 7 1023 2 2", "--code ted --n 7 --L 1023 --t 2 --e 2",
     "--kind ted --t 2 --s 1 --e 2 --messages 2 --max-work 50", 100),
    ("dc 9 300 3", "--code dc --n 9 --L 300 --t 3", "--kind del --t 3 --s 1 --messages 2 "
     "--max-work 50", 100),
    # rows of h = 4: VT residues by word multiplies reduced mod 16
    ("dc 15 12 4", "--code dc --n 15 --L 12 --t 4", "--kind del --t 4 --s 1 --messages 3 "
     "--max-work 300", 900),
    ("ted 15 12 2 2", "--code ted --n 15 --L 12 --t 2 --e 2",
     "--kind ted --t 2 --s 1 --e 2 --messages 3 --max-work 300", 900),
    # L = 16 tops the 16-bit table that gathers and scatters a row's data
    # bits; L = 32 is the first row length past it, and walks the runs past
    # position 16 too
    ("dc 9 16 3", "--code dc --n 9 --L 16 --t 3", "--kind del --t 3 --s 1 --messages 3 "
     "--max-work 100", 300),
    ("dc 9 32 3", "--code dc --n 9 --L 32 --t 3", "--kind del --t 3 --s 1 --messages 3 "
     "--max-work 100", 300),
    # rows of at most 8 positions take their symbols from one byte table per
    # code: L = 8 (h = 4) tops it, and the TED code packs two tail bits in it
    ("dc 15 8 3", "--code dc --n 15 --L 8 --t 3", "--kind del --t 3 --s 1 --messages 3 "
     "--max-work 300", 900),
    ("ted 9 6 2 2", "--code ted --n 9 --L 6 --t 2 --e 2",
     "--kind ted --t 2 --s 1 --e 2 --messages 3 --max-work 300", 900),
    # GF(2^8), the widest field whose Reed-Solomon fill packs one symbol per
    # byte lane: a carry into the next lane or a lost top bit shows first
    ("dc 40 130 8", "--code dc --n 40 --L 130 --t 8", "--kind del --t 8 --s 1 --messages 3 "
     "--max-work 300", 900),
    ("ted 20 100 3 1", "--code ted --n 20 --L 100 --t 3 --e 1",
     "--kind ted --t 3 --s 1 --e 1 --messages 3 --max-work 300", 900),
    # GF(2^10): R = 8 erasures through the fill's m-bit lanes, one
    # shift-and-reduce step per bit of each erased point
    ("ted 40 255 6 2", "--code ted --n 40 --L 255 --t 6 --e 2",
     "--kind ted --t 6 --s 1 --e 2 --messages 3 --max-work 100", 300),
    # GF(2^9): 300 rows, more than a byte-lane field holds
    ("dc 300 300 8", "--code dc --n 300 --L 300 --t 8", "--kind del --t 8 --s 1 --messages 2 "
     "--max-work 50", 100),
    # GF(2^6), h + e = 6: the widest code whose encode reads the byte tables
    # of rows of at most 8 positions
    ("ted 63 7 4 3", "--code ted --n 63 --L 7 --t 4 --e 3",
     "--kind ted --t 4 --s 1 --e 3 --messages 3 --max-work 100", 300),
]

# The distance `verify --d` finds exactly on each base code of
# `CLI_ROUNDTRIPS`, and the patterns it examines where pinned.
BASE_CODE_DISTANCES = {"construction-1 n5 d5": (5, None), "even-ext n5 d6": (6, None),
                       "claim-5 n9": (5, None), "construction-1 n5 d7": (7, 465)}


@pytest.mark.parametrize("case, construct, roundtrip, trials", CLI_ROUNDTRIPS,
                         ids=[row[0] for row in CLI_ROUNDTRIPS])
def test_cli_roundtrip(tmp_path, capsys, case, construct, roundtrip, trials):
    code_file = str(tmp_path / "code")
    assert run(capsys, "construct", *construct.split(), "--out", code_file)[0] == 0
    rc, out, err = run(capsys, "verify", "--roundtrip", "--code-file", code_file,
                       *roundtrip.split())
    assert (rc, err) == (0, "") and out.endswith(f" trials={trials} failures=0\n")
    if case in BASE_CODE_DISTANCES:
        d, patterns = BASE_CODE_DISTANCES[case]
        rc, out, _ = run(capsys, "verify", "--code-file", code_file, "--d", str(d))
        assert rc == 0 and out.startswith(f"minimum TE distance exactly {d} ")
        assert patterns is None or out.endswith(f"; {patterns} patterns examined\n")


def test_a_message_comes_back_through_the_text_files(tmp_path, capsys):
    """One message each goes through the files of DC(7,5,2), TE
    hasse(16,4,4) and TED(5,7,2,1): encode, channel, then decode
    --emit-message.  The TE and TED received texts are pinned, the first
    text of each case (TED seed 6 damages three rows, the code's full
    t + e); a copy of the TE one that marks its erased cells with a '?'
    tail must decode to the same message."""
    code, msg, arr, recv = (str(tmp_path / name) for name in ("code", "msg", "arr", "recv"))
    for construct, message, channel, received in (
            ("dc --n 7 --L 5 --t 2", "0" * 29, "del --t 2 --s 1 --seed 5", ()),
            ("hasse --n 16 --L 4 --e 4", "10" * 26 + "1",
             "te --e 4 --pattern 2,0,0,1" + ",0" * 11 + ",1",
             ("# L=4\n01\n1001\n1101\n010\n1011\n" + "0101\n" * 10 + "010\n",
              "# L=4\n01??\n1001\n1101\n010?\n1011\n" + "0101\n" * 10 + "010?\n")),
            ("ted --n 5 --L 7 --t 2 --e 1", "10" * 11 + "1", "ted --t 2 --s 1 --e 1 --seed 6",
             ("# L=7\n101010\n0101010\n111011\n0101101\n111101\n",))):
        Path(msg).write_text(message + "\n")
        assert run(capsys, "construct", "--code", *construct.split(), "--out", code)[0] == 0
        assert run(capsys, "encode", "--code-file", code, "--in", msg, "--out", arr)[0] == 0
        rc, _, _ = run(capsys, "channel", "--kind", *channel.split(), "--in", arr, "--out", recv)
        texts = received or (Path(recv).read_text(),)
        assert rc == 0 and Path(recv).read_text() == texts[0]
        for text in texts:
            Path(recv).write_text(text)
            assert run(capsys, "decode", "--code-file", code, "--in", recv,
                       "--emit-message") == (0, message + "\n", ""), text


# --- usage errors --------------------------------------------------------------

# The files the command lines below name as {name}, each written once: these
# texts, the code files of `BAD_CODE_FILES` under their case names, and the
# output of each line of `USAGE_BUILT` (run with --out).  {dir} is their
# directory, and {out} a path no usage error may write.
USAGE_TEXTS = {
    "dc541": '{"kind": "dc", "n": 5, "L": 4, "t": 1, "outer": {"q": 8, "n": 5, "k": 4}}',
    "zeros17": "0" * 17 + "\n",
    "temsg": "10" * 26 + "1\n", "msg28": "0" * 28 + "\n", "qmsg": "1?" * 12,
    "hello": "hello 1010101 world", "comma": "1010101,", "x": "10101\n01x",
    "two": "1 0 1 0 1 0 1 2", "arr": "# L=5\n" + "00000\n" * 7, "arr23": "# L=3\n101\n011\n",
    "qarr": "# L=3\n101\n01?\n", "rows4": "# L=7\n" + "0000000\n" * 4,
    "rows6": "# L=1\n" + "0\n" * 6, "q_inside": "# L=7\n0?10110\n", "q_short": "# L=7\n0110??\n",
    "bad_char": "# L=7\n0110210\n", "no_header": "0110101\n1110101\n",
    "ted_cap": json.dumps({"kind": "ted", "n": 1, "L": 10**9, "t": 0, "e": 0}),
    "dc_cap": json.dumps({"kind": "dc", "n": 2, "L": 10**9, "t": 1}),
    "cap_arr": f"# L={10**9}\n1\n",
}

USAGE_BUILT = {
    "te": "construct --code hasse --n 16 --L 4 --e 4",
    "hasse": "construct --code hasse --n 5 --L 3 --e 3",
    "hasse572": "construct --code hasse --n 5 --L 7 --e 2",
    "ham": "construct --code construction-1 --n 7 --d 3",
    "dc": "construct --code dc --n 7 --L 5 --t 2",
    "ted": "construct --code ted --n 5 --L 7 --t 2 --e 1",
    "ted1": "construct --code ted --n 5 --L 7 --t 1 --e 1",
    "tearr": "encode --code-file {te} --in {temsg}",
    "recv": "encode --code-file {dc541} --in {zeros17}",
}

# Each command line that is a usage error, and the whole of its stderr after
# "usage error: ".  Rows are grouped under the tests that have always reported
# them, one case per id; the rows of an id, or of a test of no ids, run as one.
USAGE_ERRORS = {
    "test_brute_force_parameters_out_of_range_exit_2": [
        ("argv0-distance must be at least 1", "oracle --which a-n-d --n 3 --d 0",
         "distance must be at least 1"),
        ("argv1-length must be non-negative", "oracle --which a-n-d --n -3 --d 2",
         "length must be non-negative"),
        ("argv2-distance must be at least 1", "bounds --bound column-split --n 3 --d 0",
         "distance must be at least 1"),
        ("argv3-L and s must be non-negative", "oracle --which m-s --L -1 --s 1",
         "L and s must be non-negative"),
        ("argv4-L and s must be non-negative", "oracle --which m-s --L 3 --s -1",
         "L and s must be non-negative"),
        ("argv5-L and s must be non-negative", "bounds --bound dc-1 --n 3 --L -1 --t 1 --s 1",
         "L and s must be non-negative"),
        ("argv6-radius must be non-negative", "oracle --which ball --n 2 --L 2 --r -1",
         "radius must be non-negative"),
        ("argv7-non-negative", "bounds --bound v-te --n 2 --L 2 --r -1",
         "arguments must be non-negative"),
        ("argv8-n must be positive", "construct --code even-ext --n 0 --d 6",
         "n must be positive"),
        ("argv9-n and L must be positive", "construct --code even-ext --n 3 --d 2 --L 0",
         "n and L must be positive"),
        ("argv10-n <= 10", "oracle --which a-n-d --n 26 --d 3",
         "combinatorial guard: n <= 10 for 2 <= d <= n, got n = 26"),
        ("argv11-n <= 10", "bounds --bound column-split --n 26 --d 3",
         "combinatorial guard: n <= 10 for 2 <= d <= n, got n = 26"),
        ("argv12-n*L <= 16", "oracle --which ball --n 5 --L 6 --r 1",
         "combinatorial guard: n*L <= 16, got 30"),
        ("argv13-n must be positive", "construct --code construction-1 --n 0 --d 5",
         "n must be positive"),
        ("argv14-degenerate for n = 1", "construct --code construction-1 --n 1 --d 3",
         "the interleaved construction is degenerate for n = 1"),
        ("argv15-degenerate for n = 1", "construct --code even-ext --n 1 --d 4",
         "the interleaved construction is degenerate for n = 1"),
        ("argv16-n and L must be positive", "bounds --bound dc-23 --n 0 --L 3 --t 2 --s 2",
         "n and L must be positive"),
        ("argv17-n and L must be positive", "bounds --bound dc-23 --n 3 --L 0 --t 2 --s 2",
         "n and L must be positive"),
        ("argv18-n and L must be positive", "bounds --bound dc-23 --n 0 --L 3 --t 2 --s 1",
         "n and L must be positive"),
        ("argv19-n and L must be non-negative",
         "bounds --bound singleton --n -1 --L 3 --m-size 4", "n and L must be non-negative"),
        ("argv20-M_s(L) must be positive",
         "bounds --bound dc-1 --n 3 --L 3 --t 2 --s 1 --m-s -4", "M_s(L) must be positive"),
        ("argv21-dimensions must be non-negative", "oracle --which ball --n -1 --L 2 --r 1",
         "array dimensions must be non-negative"),
        ("argv22-dimensions must be non-negative", "oracle --which ball --n 2 --L -1 --r 1",
         "array dimensions must be non-negative"),
        ("argv23-need L >= 0", "bounds --bound dc-1 --n 2 --L -1 --t 2 --s 1 --m-s 4",
         "need L >= 0, got L = -1"),
        ("argv24-n and L must be positive", "bounds --bound ted-upper --n -1 --L 9",
         "n and L must be positive, got n = -1, L = 9"),
        ("argv25-A(n,d) must be at least 1, got -5",
         "bounds --bound column-split --n 3 --d 3 --a-nd -5", "A(n,d) must be at least 1, got -5"),
        ("argv26-need n >= 0, got n = -3", "bounds --bound column-split --n -3 --d 3 --a-nd 2",
         "need n >= 0, got n = -3"),
        ("argv27-need s >= 0, got s = -1", "bounds --bound dc-1 --n 2 --L 3 --t 1 --s -1 --m-s 4",
         "need s >= 0, got s = -1"),
        ("argv28-got n = 5, t = -1", "bounds --table III --L 3 --t -1 --n-min 5 --n-max 5",
         "Table III needs n >= 1 and t >= 1, got n = 5, t = -1"),
        ("argv29-got n = 5, t = 0", "bounds --table III --L 3 --t 0 --n-min 5 --n-max 5",
         "Table III needs n >= 1 and t >= 1, got n = 5, t = 0"),
        ("argv30-got n = 3, t = 0", "bounds --table III --L 3 --t 0 --n-min 3 --n-max 3",
         "Table III needs n >= 1 and t >= 1, got n = 3, t = 0"),
        ("argv31-got n = 0, t = 2", "bounds --table III --L 3 --t 2 --n-min 0",
         "Table III needs n >= 1 and t >= 1, got n = 0, t = 2"),
        ("argv32-d must be at least 1, got d = 0", "bounds --bound sphere --n 3 --L 2 --d 0",
         "d must be at least 1, got d = 0"),
        ("argv33-float range (max 1.798e+308) for nL = 1600",
         "bounds --bound ted-upper --n 40 --L 40",
         "finite expression past the float range (max 1.798e+308) for nL = 1600; "
         "defined for nL <= 1033"),
        ("table I from n 20", "bounds --table I --n-min 20",
         "--n-min 20 is above --n-max 16: the table has no rows"),
        ("table II to n 8", "bounds --table II --n-min 9 --n-max 8 --format records",
         "--n-min 9 is above --n-max 8: the table has no rows"),
        ("construction-1 d 4", "construct --code construction-1 --n 5 --d 4 --out {out}",
         "construction-1 needs an odd d >= 3"),
        ("even-ext d 3", "construct --code even-ext --n 5 --d 3 --out {out}",
         "even-ext needs an even d >= 4 (or d = 2)"),
    ],
    "test_roundtrip_work_cap_below_one_exits_2": [
        *((f"mode{m}-{cap}", f"verify --roundtrip --code-file {{te}} --kind te --e 2 "
           f"--messages 1 {mode} --max-work {cap}", f"--max-work must be at least 1, got {cap}")
          for m, mode in enumerate(("", "--exhaustive")) for cap in (0, -1)),
        *((file, f"verify --roundtrip --exhaustive --messages 1 --code-file {{{file}}} "
           f"--kind {kind} --max-work 0", "--max-work must be at least 1, got 0")
          for file, kind in (("te", "te --e 4"), ("ted", "ted --t 2 --s 1 --e 1"),
                             ("dc", "del --t 2 --s 1"))),
    ],
    "test_roundtrip_of_no_messages_exits_2": [
        ("0", "verify --roundtrip --code-file {hasse} --kind te --e 2 --messages 0",
         "messages must be at least 1, got 0"),
        ("-5", "verify --roundtrip --code-file {hasse} --kind te --e 2 --messages -5",
         "messages must be at least 1, got -5"),
        ("te e 4", "verify --roundtrip --messages 0 --code-file {te} --kind te --e 4",
         "messages must be at least 1, got 0"),
    ],
    "test_verify_distance_below_one_exits_2": [
        ("0", "verify --code-file {hasse} --d 0", "--d must be at least 1, got 0"),
        ("-4", "verify --code-file {hasse} --d -4", "--d must be at least 1, got -4"),
        ("te", "verify --code-file {te} --d 0", "--d must be at least 1, got 0"),
    ],
    "test_verify_distance_of_a_dc_code_exits_2": [
        (None, "verify --code-file {dc} --d 3",
         "min-distance verification applies to TE parity checks"),
    ],
    "test_verify_rejects_an_option_of_the_other_mode": [
        (f"argv{i}-{line}", f"verify --code-file {{te}} {options}", line)
        for i, (options, line) in enumerate((
            ("--d 4 --max-work 1 --messages 0 --kind del --seed 3",
             "verify without --roundtrip does not read --seed, --kind, --messages, --max-work"),
            ("--roundtrip --kind te --e 1 --d 99", "verify --roundtrip --kind te does not read --d"),
            # each round-trip option alone, at its round-trip default where it has one
            *((f"--d 4 {option}", f"verify without --roundtrip does not read {option.split()[0]}")
              for option in ("--kind te", "--e 1", "--t 1", "--s 1", "--seed 0", "--messages 20",
                             "--exhaustive", "--max-work 5"))))],
    "test_options_once_left_unread_exit_2": [
        *((f"argv{i}-{line}", argv, line) for i, (argv, line) in enumerate((
            ("construct --code dc --n 7 --L 5 --t 2 --e 1 --d 9 --out {out}",
             "construct --code dc does not read --e, --d"),
            ("construct --code claim-5 --n 9 --L 7 --out {out}",
             "construct --code claim-5 does not read --L"),
            ("construct --code even-ext --n 5 --d 6 --L 9 --out {out}",
             "construct --code even-ext does not read --L unless --d 2"),
            ("channel --kind te --e 1 --t 3 --s 2 --in {arr} --out {out}",
             "channel --kind te does not read --t, --s"),
            ("channel --kind te --e 2 --pattern 2,0,0,0,0,0,0 --seed 4 --in {arr} --out {out}",
             "channel --kind te does not read --seed with --pattern"),
            ("verify --roundtrip --kind te --e 1 --t 5 --s 3 --code-file {dir}/te.tepc",
             "verify --roundtrip --kind te does not read --t, --s"),
            ("bounds --bound v-te --n 3 --L 2 --r 2 --d 3 --t 4 --n-min 9 --format records "
             "--out {out}", "bounds --bound v-te does not read --t, --d, --format, --n-min"),
            ("oracle --which m-s --L 4 --s 1 --n 5 --d 2 --seed 7 --out {out}",
             "oracle --which m-s does not read --n, --d, --seed")))),
        ("dc e", "construct --code dc --n 7 --L 5 --t 2 --e 1",
         "construct --code dc does not read --e"),
        ("te t s", "channel --kind te --e 1 --t 3 --s 2 --in {tearr}",
         "channel --kind te does not read --t, --s"),
        ("te seed", "channel --kind te --e 4 --pattern 2,0,0,1,0,0,0,0,0,0,0,0,0,0,0,1 "
         "--seed 4 --in {tearr}", "channel --kind te does not read --seed with --pattern"),
        ("te roundtrip t", "verify --roundtrip --code-file {te} --kind te --e 1 --t 5",
         "verify --roundtrip --kind te does not read --t"),
    ],
    "test_roundtrip_without_kind_exits_2": [
        (case, argv, "--kind is required here") for case, argv in (
            ("code0", "verify --code-file {dc} --roundtrip --t 1 --s 1 --e 1 --messages 1"),
            ("code1", "verify --code-file {ted1} --roundtrip --t 1 --s 1 --e 1 --messages 1"),
            ("ted", "verify --roundtrip --messages 1 --code-file {ted} --t 1 --s 1 --e 1"))],
    # each channel that deletes nothing: an exhaustive and a random round trip
    # of DC(7,5,2), and the channel at seeds 0 to 4 on a 7 x 5 array
    "test_a_deletion_channel_that_deletes_nothing_exits_2": [
        (f"kind{k}", f"{head} --kind {kind} {tail}", line)
        for k, (kind, line) in enumerate((
            ("del --t 2 --s 0", "the del channel needs --t and --s of at least 1"),
            ("del --t 0 --s 1", "the del channel needs --t and --s of at least 1"),
            ("ted --t 1 --s 0 --e 1",
             "the ted channel needs --s of at least 1 when --t is at least 1")))
        for head, tail in (("verify --roundtrip --code-file {dc}", "--messages 1 --exhaustive"),
                           ("verify --roundtrip --code-file {dc}", "--messages 1"),
                           *(("channel", f"--seed {seed} --in {{arr}}") for seed in range(5)))],
    "test_roundtrip_with_the_other_channel_family_exits_2": [
        (None, f"verify --code-file {{{file}}} --roundtrip --kind {kind} --exhaustive "
         "--messages 1", f"a {code} codec cannot round-trip the {kind.split()[0]} channel; "
         "TE codes take --kind te, DC and TED codes --kind del or ted")
        for file, code, kind in (("dc", "dc", "te --e 2"), ("ham", "te", "del --t 1 --s 1"),
                                 ("ham", "te", "ted --t 1 --s 1 --e 1"))],
    "test_encode_of_a_message_of_the_wrong_length_exits_2": [
        (None, "encode --code-file {dc} --in {msg28}", "codec expects 29 message bits, got 28"),
    ],
    "test_encode_rejects_message_text_other_than_bits": [
        (f"{USAGE_TEXTS[name]}-{bad}", f"encode --code-file {{ted1}} --in {{{name}}}",
         f"message text may hold only 0, 1 and whitespace, found {bad}")
        for name, bad in (("hello", "'h'"), ("comma", "','"), ("x", "'x'"), ("two", "'2'"))],
    "test_encode_and_channel_reject_a_question_mark": [
        (None, "encode --code-file {ted1} --in {qmsg}",
         "message text may hold only 0, 1 and whitespace, found '?'"),
        (None, "channel --kind te --e 1 --in {qarr}",
         "unexpected erasure marks in a plain bit array"),
    ],
    "test_channel_with_a_bad_pattern_exits_2": [
        ("-not erasure counts", "channel --kind te --e 2 --pattern '' --in {arr23}",
         "--pattern takes comma-separated erasure counts, got ''"),
        ("1.5,0-not erasure counts", "channel --kind te --e 2 --pattern 1.5,0 --in {arr23}",
         "--pattern takes comma-separated erasure counts, got '1.5,0'"),
        ("1,0,0-pattern length does not match row count",
         "channel --kind te --e 2 --pattern 1,0,0 --in {arr23}",
         "pattern length does not match row count"),
        ("2,1-instance exceeds the e budget", "channel --kind te --e 2 --pattern 2,1 --in {arr23}",
         "instance exceeds the e budget"),
        ("16 rows 1,0", "channel --kind te --e 2 --pattern 1,0 --in {tearr}",
         "pattern length does not match row count"),
        ("16 rows 2,1", "channel --kind te --e 2 --pattern 2,1" + ",0" * 14 + " --in {tearr}",
         "instance exceeds the e budget"),
        ("16 rows 1.5,0", "channel --kind te --e 2 --pattern 1.5,0" + ",0" * 14 + " --in {tearr}",
         "--pattern takes comma-separated erasure counts, got '1.5,0" + ",0" * 14 + "'"),
        ("16 rows empty", "channel --kind te --e 2 --pattern '' --in {tearr}",
         "--pattern takes comma-separated erasure counts, got ''"),
    ],
    "test_decode_of_an_array_of_the_wrong_row_count_exits_2": [
        (None, "decode --code-file {ted} --in {rows4}", "TedCode decodes 5 x 7 arrays, got 4 x 7"),
        (None, "decode --code-file {ham} --in {rows6}",
         "te_decode decodes 7 x 2 arrays, got 6 x 1"),
    ],
    "test_decode_of_a_malformed_received_file_exits_2": [
        (f"{code}-{USAGE_TEXTS[name]}-{fragment}", f"decode --code-file {{{file}}} --in {{{name}}}",
         line)
        for code, file in (("ted", "ted"), ("te", "hasse572"))
        for name, fragment, line in (
            ("q_inside", "may only end a row", "'?' may only end a row: '0?10110'"),
            ("q_short", "must have length L=7", "a row ending in '?' must have length L=7: '0110??'"),
            ("bad_char", "bad character", "bad character in array line: '0110210'"),
            ("no_header", "row length", "ragged input needs the row length: a '# L=<int>' line"))],
    "test_a_path_that_cannot_be_read_or_written_exits_2": [
        (case, argv, "[Errno 21] Is a directory: '{dir}'") for case, argv in (
            ("--in", "decode --in {dir} --code-file {dc541} --out {out}"),
            ("--code-file", "decode --in {recv} --code-file {dir} --out {out}"),
            ("--out", "decode --in {recv} --code-file {dc541} --out {dir}"),
            ("--in of te", "decode --code-file {te} --in {dir}"))],
    "test_decode_refuses_a_code_past_the_cell_cap": [
        (kind, f"decode --code-file {{{kind}_cap}} --in {{cap_arr}}",
         f"{kind} code in {{{kind}_cap}} has n * L = {cells} cells, more than the 16777216 "
         "this tool accepts") for kind, cells in (("ted", 10**9), ("dc", 2 * 10**9))],
    "test_construct_refuses_a_code_past_the_cell_cap": [
        ("dc", "construct --code dc --n 4097 --L 4096 --t 1 --out {out}",
         "dc code asked for has n * L = 16781312 cells, more than the 16777216 this tool accepts"),
        ("ted", "construct --code ted --n 2 --L 1000000000 --t 0 --e 1 --out {out}",
         "ted code asked for has n * L = 2000000000 cells, more than the 16777216 this tool "
         "accepts"),
    ],
    "test_bad_codec_descriptor_exits_2": [
        ('{"kind": "dc", "n": 7}-\'L\'', "encode --code-file '{n alone}'",
         "dc descriptor needs an integer 'L', got None"),
        ('{"kind": "ted", "n": 5, "L": 7, "t": "2", "e": 1}-\'t\'',
         "encode --code-file '{str t of ted}'", "ted descriptor needs an integer 't', got '2'"),
        ('{"kind": "dc", "n": 7, "L": 5, "t": true}-\'t\'', "encode --code-file '{bool t}'",
         "dc descriptor needs an integer 't', got True"),
        ('{"kind": "rs", "n": 7, "L": 5, "t": 2}-unknown codec kind',
         "encode --code-file '{kind rs}'", "unknown codec kind 'rs'"),
        ('{"kind": ["dc"], "n": 7, "L": 5, "t": 2}-unknown codec kind',
         "encode --code-file '{kind list}'", "unknown codec kind ['dc']"),
        ("[7, 5, 2]-JSON object", "encode --code-file '{JSON list}'",
         "codec descriptor in {JSON list} must be a JSON object"),
        ('"dc"-JSON object', "encode --code-file '{JSON string}'",
         "codec descriptor in {JSON string} must be a JSON object"),
        ('{"kind": "dc", "n": 7, "L": 5, -neither', "encode --code-file '{cut dc JSON}'",
         "{cut dc JSON} is neither a parity-check blob nor a JSON codec descriptor"),
    ],
    "test_truncated_code_file_exits_2": [
        (None, "verify --code-file '{cut construction-1}' --d 3",
         "parity-check body has 11 bytes; n*L*ceil(r/8) = 14 expected"),
    ],
    "test_zero_size_code_header_exits_2": [
        (None, "verify --code-file '{header only}' --d 3",
         "parity-check header declares r=0, n=1000, L=1000 with an empty body: "
         "n * (L + 1) = 1001000 rows and cells, more than the 65536 an empty body may declare"),
    ],
    "test_descriptor_without_outer_field_exits_2": [
        (f"desc{i}", f"encode --code-file '{{no outer field {kind}}}'",
         f"outer field GF(2^{m}) is not supported: h + e = {m} exceeds 31, the widest field")
        for i, (kind, m) in enumerate((("dc", 41), ("ted", 32)))],
}


def _argv(line, files):
    return [word.format(**files) for word in shlex.split(line)]


@pytest.fixture(scope="module")
def usage_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("usage")
    files = {"dir": str(root), "out": str(root / "out.txt")}
    for name, data in [*USAGE_TEXTS.items(), *((case, code) for case, code, _ in BAD_CODE_FILES)]:
        files[name] = str(root / name)
        Path(files[name]).write_bytes(data if isinstance(data, bytes) else data.encode())
    for name, argv in USAGE_BUILT.items():
        files[name] = str(root / name)
        assert main([*_argv(argv, files), "--out", files[name]]) == 0
    return files


def _usage_error_test(rows):
    """The test of `rows`: each case runs the rows of its id in-process, and
    a test of no ids runs them all."""
    ids = list(dict.fromkeys(case for case, _, _ in rows))

    def test(usage_files, capsys, case):
        for row_case, argv, line in rows:
            if row_case == case:
                assert run(capsys, *_argv(argv, usage_files)) == (
                    2, "", f"usage error: {line.format(**usage_files)}\n"), argv
                assert not Path(usage_files["out"]).exists(), argv

    if ids == [None]:
        return lambda usage_files, capsys: test(usage_files, capsys, None)
    return pytest.mark.parametrize("case", ids)(test)


globals().update((name, _usage_error_test(rows)) for name, rows in USAGE_ERRORS.items())


def test_entry_point_exit_statuses(usage_files):
    """`python -m arraycodes.cli` exits 0 on success, 1 on a distance check
    that falls short, and 2 on a usage error and on an option argparse
    rejects.  pytest's `pythonpath` setting does not reach a child process,
    so PYTHONPATH names the directory that holds the package."""
    env = {**os.environ, "PYTHONPATH": str(Path(arraycodes.__file__).parents[1])}

    def cli(line):
        done = subprocess.run([sys.executable, "-m", "arraycodes.cli", *_argv(line, usage_files)],
                              env=env, capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    assert cli("oracle --which m-s --L 4 --s 1") == (0, "oracle=m-s L=4 s=1 value=4\n", "")
    rc, out, _ = cli("verify --code-file {te} --d 7")
    assert rc == 1 and out.startswith("minimum TE distance exactly 6 ")
    _, argv, line = USAGE_ERRORS["test_brute_force_parameters_out_of_range_exit_2"][0]
    assert cli(argv) == (2, "", f"usage error: {line}\n")
    rc, out, err = cli("decode --code-file {dc} --e")
    assert (rc, out) == (2, "") and "unrecognized arguments: --e" in err


def test_usage_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "construct", "--code", "construction-1", "--n", "7")
    assert rc == 2 and "usage error" in err
    rc, _, err = run(capsys, "encode", "--code-file", str(tmp_path / "missing.json"))
    assert rc == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_roundtrip_options_only_on_verify(tmp_path, capsys):
    """--exhaustive and --max-work mean something to verify alone; any other
    subcommand rejects them as unknown arguments."""
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--code", "dc", "--n", "7", "--L", "5", "--t", "2",
              "--max-work", "-3", "--exhaustive", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-work -3 --exhaustive" in capsys.readouterr().err
    assert not out.exists()
    rc, _, _ = run(capsys, "construct", "--code", "dc", "--n", "7", "--L", "5", "--t", "2",
                   "--out", str(out))
    assert rc == 0
    for flag in (("--exhaustive",), ("--max-work", "5")):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--code-file", str(out), *flag])
        assert exc.value.code == 2


def test_ted_descriptor_loads(tmp_path, capsys):
    codec_file = tmp_path / "ted.json"
    rc, _, _ = run(capsys, "construct", "--code", "ted", "--n", "5", "--L", "7",
                   "--t", "1", "--e", "1", "--out", str(codec_file))
    assert rc == 0
    msg_file = tmp_path / "msg.txt"
    msg_file.write_text("0" * json.loads(codec_file.read_text())["message_bits"])
    rc, out, _ = run(capsys, "encode", "--code-file", str(codec_file),
                     "--in", str(msg_file))
    assert rc == 0 and out == "# L=7\n" + "0000000\n" * 5


def test_exhaustive_roundtrip_over_work_cap_exits_2(tmp_path, capsys):
    codec_file = tmp_path / "dc.json"
    run(capsys, "construct", "--code", "dc", "--n", "5", "--L", "4", "--t", "1",
        "--out", str(codec_file))
    # del t=1 s=1 on 5 x 4 has 20 instances
    args = ("verify", "--code-file", str(codec_file), "--roundtrip", "--kind", "del",
            "--t", "1", "--s", "1", "--messages", "1", "--exhaustive")
    rc, _, err = run(capsys, *args, "--max-work", "19")
    assert rc == 2 and "work cap" in err
    rc, out, _ = run(capsys, *args, "--max-work", "20")
    assert rc == 0 and "trials=20" in out
    # random mode draws --max-work instances
    rc, out, _ = run(capsys, "verify", "--code-file", str(codec_file), "--roundtrip",
                     "--kind", "del", "--t", "1", "--s", "1", "--messages", "1",
                     "--max-work", "7")
    assert rc == 0 and "trials=7" in out


def test_roundtrip_defaults_are_seed_0_and_20_messages(tmp_path, capsys):
    te_file = tmp_path / "h.tepc"
    run(capsys, "construct", "--code", "hasse", "--n", "5", "--L", "3", "--e", "3",
        "--out", str(te_file))
    argv = ("verify", "--roundtrip", "--code-file", str(te_file), "--kind", "te",
            "--e", "2", "--max-work", "3")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and "seed=0 trials=60 failures=0" in out
    assert run(capsys, *argv, "--seed", "0", "--messages", "20") == (rc, out, "")


def test_a_ted_channel_of_no_deletion_rows_takes_no_deletion_count(tmp_path, capsys):
    """--t 0 draws no deletion row, so --s 0 is no error there."""
    arr_file = tmp_path / "arr.txt"
    arr_file.write_text("# L=5\n" + "00000\n" * 7)
    rc, _, err = run(capsys, "channel", "--kind", "ted", "--t", "0", "--s", "0",
                     "--e", "0", "--in", str(arr_file))
    assert rc == 0 and err == "instance: ((0, 0, 0, 0, 0, 0, 0), ())\n"


def test_verify_distance_builds_no_encoder(tmp_path, capsys, monkeypatch):
    """The distance check reads the parity check alone."""
    code_file = tmp_path / "ham.tepc"
    run(capsys, "construct", "--code", "construction-1", "--n", "7", "--d", "3",
        "--out", str(code_file))

    def built(*args):
        raise AssertionError("verify --d built the encoder")

    monkeypatch.setattr(TeCodec, "__init__", built)
    rc, out, _ = run(capsys, "verify", "--code-file", str(code_file), "--d", "3")
    assert rc == 0 and "exactly 3" in out


# --- per-subcommand options ---------------------------------------------------

# The option strings each subcommand registers: exactly the ones its
# command reads.
OPTIONS = {
    "construct": "--n --L --e --t --d --out --code --raw --dump",
    "encode": "--in --out --code-file",
    "decode": "--in --out --code-file --emit-message",
    "channel": "--e --t --s --seed --in --out --kind --pattern",
    "verify": "--e --t --s --d --seed --code-file --roundtrip --kind --messages "
              "--exhaustive --max-work",
    "bounds": "--n --L --t --s --d --format --out --bound --table --n-min --n-max "
              "--r --a-nd --m-s --m-size",
    "oracle": "--n --L --s --d --seed --out --which --r",
}

# The options that were once registered on every subcommand.
SHARED = ("--n", "--L", "--e", "--t", "--s", "--d", "--seed", "--format", "--in", "--out")

# A command line each subcommand parses, to which one unread option is added.
BASE = {
    "construct": ("--code", "dc", "--n", "5", "--L", "4", "--t", "1"),
    "encode": ("--code-file", "codec.json"),
    "decode": ("--code-file", "codec.json"),
    "channel": ("--kind", "te", "--e", "1"),
    "verify": ("--code-file", "te.tepc", "--d", "4"),
    "bounds": ("--bound", "sphere", "--n", "7", "--L", "2", "--d", "3"),
    "oracle": ("--which", "m-s", "--L", "4", "--s", "1"),
}


def subparsers():
    return next(a for a in build_parser()._actions if a.dest == "command").choices


def registered(p):
    return {a.option_strings[0] for a in p._actions if a.dest != "help"}


def test_each_subcommand_registers_exactly_its_options():
    parsers = subparsers()
    assert set(parsers) == set(OPTIONS)
    for name, options in OPTIONS.items():
        assert registered(parsers[name]) == set(options.split()), name
    assert sum(len(registered(p)) for p in parsers.values()) == 58


DROPPED = [(name, opt) for name in OPTIONS for opt in SHARED
           if opt not in OPTIONS[name].split()]


def test_dropped_option_count():
    assert len(DROPPED) == 36


@pytest.mark.parametrize("command, option", DROPPED)
def test_unread_option_exits_2(tmp_path, capsys, command, option):
    base = (command, *BASE[command])
    build_parser().parse_args(base)     # the base line alone parses
    value = {"--format": "text", "--in": str(tmp_path / "in.txt"),
             "--out": str(tmp_path / "out.txt")}.get(option, "1")
    with pytest.raises(SystemExit) as exc:
        main([*base, option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


# Each mode of `cli._READS`: the options of a command line that selects it,
# less the selector, and one option the mode does not read.
UNREAD_IN_MODE = [
    ("construct", "--code construction-1", ("--n", "7", "--d", "3"), ("--L", "2")),
    ("construct", "--code even-ext", ("--n", "5", "--d", "2"), ("--e", "1")),
    ("construct", "--code claim-5", ("--n", "9"), ("--L", "7")),
    ("construct", "--code claim-7", ("--n", "6"), ("--d", "5")),
    ("construct", "--code hasse", ("--n", "5", "--L", "3", "--e", "3"), ("--t", "1")),
    ("construct", "--code dc", ("--n", "7", "--L", "5", "--t", "2"), ("--e", "1")),
    ("construct", "--code ted", ("--n", "5", "--L", "7", "--t", "1", "--e", "1"),
     ("--dump",)),
    ("channel", "--kind te", ("--e", "1"), ("--t", "3")),
    ("channel", "--kind del", ("--t", "1", "--s", "1"), ("--e", "1")),
    ("channel", "--kind ted", ("--t", "1", "--s", "1", "--e", "1"), ("--pattern", "1,0")),
    ("verify", "without --roundtrip", ("--d", "4"), ("--kind", "te")),
    ("verify", "--roundtrip --kind te", ("--e", "1"), ("--t", "5")),
    ("verify", "--roundtrip --kind del", ("--t", "1", "--s", "1"), ("--e", "1")),
    ("verify", "--roundtrip --kind ted", ("--t", "1", "--s", "1", "--e", "1"), ("--d", "3")),
    ("bounds", "--table I", (), ("--L", "4")),
    ("bounds", "--table II", ("--n-max", "5"), ("--d", "3")),
    ("bounds", "--table III", ("--L", "4", "--t", "1"), ("--s", "1")),
    ("bounds", "--bound v-te", ("--n", "3", "--L", "2", "--r", "2"), ("--format", "records")),
    ("bounds", "--bound sphere", ("--n", "7", "--L", "2", "--d", "3"), ("--n-min", "9")),
    ("bounds", "--bound column-split", ("--n", "5", "--d", "3"), ("--m-s", "3")),
    ("bounds", "--bound singleton", ("--n", "5", "--L", "3", "--m-size", "16"), ("--a-nd", "2")),
    ("bounds", "--bound dc-1", ("--n", "5", "--L", "4", "--t", "1", "--s", "1"), ("--d", "2")),
    ("bounds", "--bound dc-23", ("--n", "5", "--L", "4", "--t", "2", "--s", "2"), ("--m-s", "3")),
    ("bounds", "--bound ted-upper", ("--n", "5", "--L", "4"), ("--t", "1")),
    ("oracle", "--which ball", ("--n", "2", "--L", "3", "--r", "1"), ("--s", "1")),
    ("oracle", "--which m-s", ("--L", "4", "--s", "1"), ("--seed", "7")),
    ("oracle", "--which a-n-d", ("--n", "5", "--d", "3"), ("--r", "1")),
]


def test_every_mode_of_the_table_is_covered():
    assert sorted((c, m) for c, m, _, _ in UNREAD_IN_MODE) == \
        sorted((c, m) for c, modes in _READS.items() for m in modes)


@pytest.mark.parametrize("command, mode, options, unread", UNREAD_IN_MODE)
def test_each_mode_rejects_an_option_it_does_not_read(tmp_path, capsys, command, mode,
                                                      options, unread):
    """The mode's line alone passes the check of what it reads.  With one
    option more it exits 2 with one line naming that option, before it
    reads a file or writes --out."""
    out = tmp_path / "out.txt"
    argv = [command, *([] if mode.startswith("without") else mode.split()), *options]
    argv += (["--code-file", str(tmp_path / "te.tepc")] if command == "verify"
             else ["--out", str(out)])
    _check_reads(build_parser().parse_args(argv))
    rc, stdout, err = run(capsys, *argv, *unread)
    assert (rc, stdout) == (2, "")
    assert err == f"usage error: {command} {mode} does not read {unread[0]}\n"
    assert not out.exists()


ABBREVIATED = [(name, option[:-1]) for name, options in OPTIONS.items()
               for option in options.split()
               if len(option) > 3 and option[:-1] not in options.split()]


@pytest.mark.parametrize("command, prefix", ABBREVIATED)
def test_abbreviated_option_exits_2(capsys, command, prefix):
    """No parser takes a prefix of an option for the option itself."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *BASE[command], prefix, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {prefix} 1" in capsys.readouterr().err


def test_abbreviations_on_real_files_exit_2(usage_files, capsys):
    """`--e`, `--mess` and `--max` are prefixes of decode's and verify's
    options, not options: each line exits 2 and prints nothing to stdout."""
    for line in ("decode --code-file {dc} --in {recv} --e",
                 "verify --code-file {dc} --roundtrip --kind del --t 1 --s 1 --mess 1 --max 5"):
        with pytest.raises(SystemExit) as exc:
            main(_argv(line, usage_files))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err


def test_verify_with_out_exits_2_and_writes_nothing(tmp_path, capsys):
    te_file = tmp_path / "te.tepc"
    run(capsys, "construct", "--code", "construction-1", "--n", "7", "--d", "3",
        "--out", str(te_file))
    report = tmp_path / "r.txt"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--code-file", str(te_file), "--d", "4", "--out", str(report)])
    assert exc.value.code == 2
    assert not report.exists()


@pytest.mark.parametrize("extra", [("--table", "I"), ()])
def test_bounds_takes_exactly_one_of_bound_and_table(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", *extra, *(("--bound", "sphere") if extra else ()),
              "--n", "7", "--L", "2", "--d", "3"])
    assert exc.value.code == 2
    assert "--bound" in capsys.readouterr().err


# --- message text --------------------------------------------------------------

def test_emitted_message_encodes_again(tmp_path, capsys):
    """Bits split by any whitespace encode; decode --emit-message output
    feeds back into encode and gives the same array."""
    codec_file = tmp_path / "dc.json"
    run(capsys, "construct", "--code", "dc", "--n", "7", "--L", "5", "--t", "2",
        "--out", str(codec_file))
    bits = "".join(str(random.Random(8).randrange(2)) for _ in range(29))
    msg_file = tmp_path / "msg.txt"
    msg_file.write_text(" ".join(bits[:10]) + "\n\t" + bits[10:20] + "\r\n" + bits[20:])
    arr_file = tmp_path / "arr.txt"
    rc, _, _ = run(capsys, "encode", "--code-file", str(codec_file),
                   "--in", str(msg_file), "--out", str(arr_file))
    assert rc == 0
    emitted = tmp_path / "emitted.txt"
    rc, _, _ = run(capsys, "decode", "--code-file", str(codec_file),
                   "--in", str(arr_file), "--emit-message", "--out", str(emitted))
    assert rc == 0 and emitted.read_text() == bits + "\n"
    rc, out, _ = run(capsys, "encode", "--code-file", str(codec_file),
                     "--in", str(emitted))
    assert rc == 0 and out == arr_file.read_text()


def test_hasse_raw_and_reduced_blobs(tmp_path, capsys):
    """--raw writes the raw derivative stack, the default the reduced code;
    at (5, 3, 3) the two differ."""
    blobs = {}
    for extra in ((), ("--raw",)):
        path = tmp_path / f"hasse{len(extra)}.tepc"
        rc, _, _ = run(capsys, "construct", "--code", "hasse", "--n", "5", "--L", "3",
                       "--e", "3", "--out", str(path), *extra)
        assert rc == 0
        blobs[extra] = path.read_bytes()
    assert blobs[()] == construct_hasse(5, 3, 3).to_bytes()
    assert blobs[("--raw",)] == construct_hasse_raw(5, 3, 3).to_bytes()
    assert blobs[()] != blobs[("--raw",)]


@pytest.mark.parametrize("argv,summary,d", [
    (("even-ext", "--n", "4", "--d", "2", "--L", "3"),
     "provenance=even-ext n=4 L=3 redundancy=1 dimension=11", 2),
    (("even-ext", "--n", "4", "--d", "4"),
     "provenance=even-ext n=4 L=3 redundancy=4 dimension=8", 4),
    (("construction-1", "--n", "4", "--d", "5"),
     "provenance=construction-1 n=4 L=4 redundancy=8 dimension=8", 5),
    (("claim-5", "--n", "4"), "provenance=claim-5 n=4 L=4 redundancy=8 dimension=8", 5),
    (("claim-7", "--n", "4"), "provenance=claim-7 n=4 L=2 redundancy=6 dimension=2", 6),
])
def test_construct_each_te_code(tmp_path, capsys, argv, summary, d):
    code_file = tmp_path / "code.tepc"
    rc, out, _ = run(capsys, "construct", "--code", *argv, "--out", str(code_file))
    assert rc == 0 and out == f"wrote {code_file}: {summary}\n"
    rc, out, _ = run(capsys, "verify", "--code-file", str(code_file), "--d", str(d))
    assert rc == 0 and f"minimum TE distance exactly {d} " in out


def test_construct_dump(tmp_path, capsys):
    """--dump adds the text dump after the summary line, the same text that
    construct prints without --out."""
    code_file = tmp_path / "c7.tepc"
    rc, dumped, _ = run(capsys, "construct", "--code", "claim-7", "--n", "3")
    assert rc == 0 and dumped.startswith("te-parity-check r=6 n=3 L=2 provenance=claim-7")
    rc, out, _ = run(capsys, "construct", "--code", "claim-7", "--n", "3",
                     "--out", str(code_file), "--dump")
    assert rc == 0 and out == (f"wrote {code_file}: provenance=claim-7 n=3 L=2 "
                               f"redundancy=6 dimension=0\n" + dumped)


def test_decode_writes_the_codeword_and_exits_1_past_capacity(tmp_path, capsys):
    codec_file = tmp_path / "dc.json"
    run(capsys, "construct", "--code", "dc", "--n", "5", "--L", "4", "--t", "1",
        "--out", str(codec_file))
    msg_file = tmp_path / "msg.txt"
    msg_file.write_text("10110011101001110\n")
    arr_file = tmp_path / "arr.txt"
    rc, _, _ = run(capsys, "encode", "--code-file", str(codec_file),
                   "--in", str(msg_file), "--out", str(arr_file))
    assert rc == 0
    recv_file = tmp_path / "recv.txt"
    rc, _, err = run(capsys, "channel", "--kind", "del", "--t", "1", "--s", "1",
                     "--seed", "0", "--in", str(arr_file), "--out", str(recv_file))
    assert rc == 0 and err == "instance: ((4, (3,)),)\n"
    rc, out, _ = run(capsys, "decode", "--code-file", str(codec_file),
                     "--in", str(recv_file))
    assert rc == 0 and out == arr_file.read_text()
    short2 = tmp_path / "short2.txt"
    short2.write_text("# L=4\n101\n0110\n110\n0011\n1010\n")
    rc, out, err = run(capsys, "decode", "--code-file", str(codec_file),
                       "--in", str(short2))
    assert rc == 1 and out == ""
    assert err == "verification failure: 2 damaged rows exceed capacity t+e = 1\n"


@pytest.mark.parametrize("argv,line", [
    (("column-split", "--n", "7", "--d", "5"),
     "name=te-column-split A(n,d)=2 d=5 n=7 value=4194304 provenance=formula "
     "note='A(n,d) brute-force'"),
    (("column-split", "--n", "7", "--d", "5", "--a-nd", "4"),
     "name=te-column-split A(n,d)=4 d=5 n=7 value=8388608 provenance=formula "
     "note='A(n,d) supplied'"),
    (("singleton", "--n", "4", "--L", "3", "--m-size", "100"),
     "name=singleton n=4 L=3 M=100 value=6"),
    (("dc-1", "--n", "4", "--L", "4", "--t", "1", "--s", "1"),
     "name=dc-first-rows L=4 M_s(L)=4 n=4 s=1 t=1 value=16384 provenance=formula "
     "note='M_s(L) brute-force'"),
    (("dc-1", "--n", "4", "--L", "4", "--t", "1", "--s", "1", "--m-s", "4"),
     "name=dc-first-rows L=4 M_s(L)=4 n=4 s=1 t=1 value=16384 provenance=formula "
     "note='M_s(L) supplied'"),
    (("dc-23", "--n", "5", "--L", "4", "--t", "2", "--s", "1"),
     "name=dc-packing-s1 L=4 n=5 s=1 t=2 value=1048577/5 provenance=formula "
     "note='redundancy >= ~2.322 asymptotically'"),
    (("dc-23", "--n", "5", "--L", "4", "--t", "2", "--s", "2"),
     "name=dc-packing L=4 n=5 s=2 t=2 value=262144/5 provenance=formula "
     "note='redundancy >= ~4.322 asymptotically'"),
    (("ted-upper", "--n", "5", "--L", "7"),
     "name=ted-upper L=7 n=5 value=2707683586.0748386 provenance=formula "
     "note='asymptotic guidance only' finite=2.70768e+09 asymptotic=9.81707e+08"),
])
def test_each_bound(capsys, argv, line):
    rc, out, _ = run(capsys, "bounds", "--bound", *argv)
    assert rc == 0 and out == line + "\n"


def test_v_te_beyond_L_matches_the_ball_oracle(capsys):
    rc, out, _ = run(capsys, "oracle", "--which", "ball", "--n", "2", "--L", "3", "--r", "4")
    assert rc == 0 and out == "oracle=ball n=2 L=3 r=4 seed=0 value=32\n"
    center = BitArray.from_lists([[1, 0], [0, 1], [1, 1]])
    rc, out, _ = run(capsys, "bounds", "--bound", "v-te", "--r", "5", "--n", "3", "--L", "2")
    assert rc == 0 and out == "name=v-te n=3 L=2 r=5 value=56\n"
    assert ball_count_brute(center, 5) == 56


@pytest.mark.parametrize("argv,text_head,record", [
    (("II",), ["table  n  L  e  upper_measured  cell_closed  formula",
               "II     3  2  2  2               3            log2(n)+1"],
     "table=II n=3 L=2 e=2 upper_measured=2 cell_closed=3 formula=log2(n)+1"),
    (("III", "--L", "5", "--t", "2"),
     ["table  n  L  t  s  h  upper_measured  closed[n<=2^h+1]  closed[n=c*2^h]"
      "    closed[general]    applicable",
      "III    3  5  2  1  3  6               6                 3.169925001442312"
      "  9.169925001442312  n<=2^h+1,general"],
     "table=III n=3 L=5 t=2 s=1 h=3 upper_measured=6 closed[n<=2^h+1]=6 "
     "closed[n=c*2^h]=3.169925001442312 closed[general]=9.169925001442312 "
     "applicable=n<=2^h+1,general"),
    (("I",), ["table  n  L  d  upper_measured  upper_closed  lower_closed  "
              "lower_packing  gap",
              "I      3  1  2  1               1             1             0"
              "              0"],
     "table=I n=3 L=1 d=2 upper_measured=1 upper_closed=1 lower_closed=1 "
     "lower_packing=0 gap=0"),
])
def test_tables_in_text_and_records(capsys, argv, text_head, record):
    table = ("bounds", "--table", *argv, "--n-min", "3", "--n-max", "4")
    rc, text, _ = run(capsys, *table)
    assert rc == 0 and text.splitlines()[:2] == text_head
    rc, records, _ = run(capsys, *table, "--format", "records")
    assert rc == 0 and records.splitlines()[0] == record
    assert len(records.splitlines()) == len(text.splitlines()) - 1


def test_bounds_table_iii_records(capsys):
    """Past n = 2^h - 1 = 7 TedCode has no code, so upper_measured reads
    None; n = 8 also takes the n = c*2^h regime."""
    rc, out, _ = run(capsys, "bounds", "--table", "III", "--L", "7", "--t", "2",
                     "--n-min", "7", "--n-max", "9", "--format", "records")
    assert rc == 0
    assert out.splitlines() == [
        "table=III n=7 L=7 t=2 s=1 h=3 upper_measured=6 closed[n<=2^h+1]=6 "
        "closed[n=c*2^h]=5.614709844115208 closed[general]=11.614709844115207 "
        "applicable=n<=2^h+1,general",
        "table=III n=8 L=7 t=2 s=1 h=3 upper_measured=None closed[n<=2^h+1]=6 "
        "closed[n=c*2^h]=6.0 closed[general]=12.0 applicable=n<=2^h+1,n=c*2^h,general",
        "table=III n=9 L=7 t=2 s=1 h=3 upper_measured=None closed[n<=2^h+1]=6 "
        "closed[n=c*2^h]=6.339850002884624 closed[general]=12.339850002884624 "
        "applicable=n<=2^h+1,general"]


# --- malformed input files -----------------------------------------------------

def _descriptor(base, **changes):
    """A JSON descriptor file: `base` with the given keys changed, and the
    keys set to None dropped."""
    desc = {**base, **changes}
    return json.dumps({k: v for k, v in desc.items() if v is not None}).encode()


def _tepc(magic=b"TEPC", version=1, r=3, n=4, L=3, provenance=b"hasse", cut=0):
    """A parity-check blob of zero columns with the given header fields, its
    last `cut` bytes dropped."""
    blob = (struct.pack(">4sHIIIiH", magic, version, r, n, L, -1, len(provenance))
            + provenance + bytes(n * L * ((r + 7) // 8)))
    return blob[:len(blob) - cut]


_DC = {"kind": "dc", "n": 7, "L": 5, "t": 2}
_TED = {"kind": "ted", "n": 5, "L": 7, "t": 1, "e": 1}
_ARRAY = "# L=7\n" + "0000000\n" * 5      # a TED(5,7) array

# (case, code file, a fragment of its message): no command may load these.
BAD_CODE_FILES = [
    ("truncated JSON", _descriptor(_TED)[:-4], "neither"),
    ("JSON list", b"[7, 5, 2]", "JSON object"),
    ("JSON null", b"null", "JSON object"),
    ("unknown kind", _descriptor(_DC, kind="vt"), "unknown codec kind"),
    ("no kind", _descriptor(_DC, kind=None), "unknown codec kind"),
    ("dropped n", _descriptor(_DC, n=None), "integer 'n'"),
    ("dropped e", _descriptor(_TED, e=None), "integer 'e'"),
    ("str t", _descriptor(_DC, t="2"), "integer 't'"),
    ("float L", _descriptor(_TED, L=7.0), "integer 'L'"),
    ("bool e", _descriptor(_TED, e=True), "integer 'e'"),
    ("negative t", _descriptor(_DC, t=-1), "1 <= t < n"),
    ("negative n", _descriptor(_TED, n=-5), "must be positive"),
    ("zero L", _descriptor(_DC, L=0), "must be positive"),
    ("e at n - t", _descriptor(_TED, e=4), "smaller than n"),
    ("tail over VT positions", _descriptor(_TED, n=9, e=4), "systematic encoding"),
    ("n beyond the field", _descriptor(_DC, n=9), "at most 7 rows"),
    ("short header", _tepc()[:20], "shorter than its 24-byte header"),
    ("wrong magic", _tepc(magic=b"TEPX"), "neither"),
    ("bad version", _tepc(version=2), "unsupported version 2"),
    ("zero r", _tepc(r=0, n=2**32 - 1, L=2**32 - 1), "r=0"),
    ("zero n", _tepc(n=0) + b"\x00", "n*L*ceil(r/8) = 0 expected"),
    ("zero L blob", _tepc(n=2**32 - 1, L=0), "L=0"),
    ("short body", _tepc(cut=1), "body has 11 bytes"),
    ("non-UTF-8 provenance", _tepc(provenance=b"\xff\xfe"), "utf-8"),
    ("overlong provenance", _tepc(cut=14), "provenance of 5 bytes runs past the end"),
    ("n alone", _descriptor(_DC, L=None, t=None), "integer 'L'"),
    ("str t of ted", _descriptor(_TED, t="2"), "integer 't'"),
    ("bool t", _descriptor(_DC, t=True), "integer 't'"),
    ("kind rs", _descriptor(_DC, kind="rs"), "unknown codec kind"),
    ("kind list", _descriptor(_DC, kind=["dc"]), "unknown codec kind"),
    ("JSON string", b'"dc"', "JSON object"),
    ("cut dc JSON", b'{"kind": "dc", "n": 7, "L": 5, ', "neither"),
    ("cut construction-1", construct_interleaved(7, 3).to_bytes()[:-3], "14 expected"),
    ("header only", _tepc(r=0, n=1000, L=1000, provenance=b""), "r=0, n=1000, L=1000"),
    ("no outer field dc", _descriptor(_DC, n=31, L=2**40, t=8), "h + e"),
    ("no outer field ted", _descriptor(_TED, n=4, L=2**29 + 100, t=1, e=2), "h + e"),
]

# (case, array file, a fragment of its message): neither decode nor channel
# may read these.
BAD_ARRAY_FILES = [
    ("word L", "# L=x\n10\n", "'# L=' takes the row length as an int, got '# L=x'"),
    ("float L", "# L=3.5\n101\n", "'# L=' takes the row length as an int, got '# L=3.5'"),
    ("empty L", "# L=\n101\n", "'# L=' takes the row length as an int, got '# L='"),
    ("row past L", "# L=7\n10101011\n" + "0000000\n" * 4, "row 1 has 8 positions, more than L=7"),
]

MALFORMED = (
    [pytest.param(command, code, _ARRAY, fragment, id=f"{command}-{case}")
     for command in ("encode", "decode", "verify") for case, code, fragment in BAD_CODE_FILES]
    + [pytest.param(command, _descriptor(_TED), text, fragment, id=f"{command}-{case}")
       for command in ("decode", "channel") for case, text, fragment in BAD_ARRAY_FILES])


@pytest.mark.parametrize("command, code, text, fragment", MALFORMED)
def test_malformed_input_file_exits_2_with_one_line(tmp_path, capsys, command, code,
                                                     text, fragment):
    """Each bad code or array file is a usage error: exit 2, nothing on
    stdout and one line on stderr, not a traceback."""
    code_file, in_file = tmp_path / "code", tmp_path / "in.txt"
    code_file.write_bytes(code)
    in_file.write_text(text)
    argv = {"encode": ("--code-file", code_file),
            "decode": ("--code-file", code_file),
            "channel": ("--kind", "te", "--e", "1"),
            "verify": ("--code-file", code_file, "--d", "3")}[command]
    if command != "verify":
        argv += ("--in", in_file)
    rc, out, err = run(capsys, command, *map(str, argv))
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert fragment in err


def test_code_files_up_to_the_cell_cap_load(tmp_path):
    code_file = tmp_path / "code.json"
    rc = main(["construct", "--code", "dc", "--n", "255", "--L", "255", "--t", "16",
               "--out", str(code_file)])
    assert rc == 0 and load_codec(str(code_file)) == DcCode(255, 255, 16)
    code_file.write_text(json.dumps({"kind": "dc", "n": 4096, "L": 4096, "t": 1}))
    assert load_codec(str(code_file)).n * 4096 == MAX_CELLS
    code_file.write_text(json.dumps({"kind": "dc", "n": 4097, "L": 4096, "t": 1}))
    with pytest.raises(UsageError, match="cells"):
        load_codec(str(code_file))


@pytest.mark.parametrize("command, flag, choices", [
    ("construct", "--code",
     ["construction-1", "even-ext", "claim-5", "claim-7", "hasse", "dc", "ted"]),
    ("channel", "--kind", ["te", "del", "ted"]),
    ("verify", "--kind", ["te", "del", "ted"]),
    ("bounds", "--bound",
     ["v-te", "sphere", "column-split", "singleton", "dc-1", "dc-23", "ted-upper"]),
    ("bounds", "--table", ["I", "II", "III"]),
    ("oracle", "--which", ["ball", "m-s", "a-n-d"])])
def test_each_selector_takes_the_modes_of_the_table(command, flag, choices):
    """A selector's values, in order, are those that name a mode of its
    subcommand in `_READS`."""
    action = next(a for a in subparsers()[command]._actions if flag in a.option_strings)
    assert list(action.choices) == choices
    assert [m.split()[-1] for m in _READS[command] if flag in m.split()] == choices
