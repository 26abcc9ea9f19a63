import json
import random
import struct

import pytest

from arraycodes.arrays import BitArray, format_bit_array
from arraycodes.bounds import ball_count_brute
from arraycodes.cli import (_READS, MAX_CELLS, UsageError, _check_reads, build_parser,
                            load_codec, main)
from arraycodes.dc import DcCode
from arraycodes.te import TeCodec, construct_hasse, construct_hasse_raw


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


@pytest.mark.parametrize("argv, fragment", [
    (("oracle", "--which", "a-n-d", "--n", "3", "--d", "0"), "distance must be at least 1"),
    (("oracle", "--which", "a-n-d", "--n", "-3", "--d", "2"), "length must be non-negative"),
    (("bounds", "--bound", "column-split", "--n", "3", "--d", "0"),
     "distance must be at least 1"),
    (("oracle", "--which", "m-s", "--L", "-1", "--s", "1"), "L and s must be non-negative"),
    (("oracle", "--which", "m-s", "--L", "3", "--s", "-1"), "L and s must be non-negative"),
    (("bounds", "--bound", "dc-1", "--n", "3", "--L", "-1", "--t", "1", "--s", "1"),
     "L and s must be non-negative"),
    (("oracle", "--which", "ball", "--n", "2", "--L", "2", "--r", "-1"),
     "radius must be non-negative"),
    (("bounds", "--bound", "v-te", "--n", "2", "--L", "2", "--r", "-1"), "non-negative"),
    (("construct", "--code", "even-ext", "--n", "0", "--d", "6"), "n must be positive"),
    (("construct", "--code", "even-ext", "--n", "3", "--d", "2", "--L", "0"),
     "n and L must be positive"),
    (("oracle", "--which", "a-n-d", "--n", "26", "--d", "3"), "n <= 10"),
    (("bounds", "--bound", "column-split", "--n", "26", "--d", "3"), "n <= 10"),
    (("oracle", "--which", "ball", "--n", "5", "--L", "6", "--r", "1"), "n*L <= 16"),
    (("construct", "--code", "construction-1", "--n", "0", "--d", "5"), "n must be positive"),
    (("construct", "--code", "construction-1", "--n", "1", "--d", "3"),
     "degenerate for n = 1"),
    (("construct", "--code", "even-ext", "--n", "1", "--d", "4"), "degenerate for n = 1"),
    (("bounds", "--bound", "dc-23", "--n", "0", "--L", "3", "--t", "2", "--s", "2"),
     "n and L must be positive"),
    (("bounds", "--bound", "dc-23", "--n", "3", "--L", "0", "--t", "2", "--s", "2"),
     "n and L must be positive"),
    (("bounds", "--bound", "dc-23", "--n", "0", "--L", "3", "--t", "2", "--s", "1"),
     "n and L must be positive"),
    (("bounds", "--bound", "singleton", "--n", "-1", "--L", "3", "--m-size", "4"),
     "n and L must be non-negative"),
    (("bounds", "--bound", "dc-1", "--n", "3", "--L", "3", "--t", "2", "--s", "1",
      "--m-s", "-4"), "M_s(L) must be positive"),
    (("oracle", "--which", "ball", "--n", "-1", "--L", "2", "--r", "1"),
     "dimensions must be non-negative"),
    (("oracle", "--which", "ball", "--n", "2", "--L", "-1", "--r", "1"),
     "dimensions must be non-negative"),
    (("bounds", "--bound", "dc-1", "--n", "2", "--L", "-1", "--t", "2", "--s", "1",
      "--m-s", "4"), "need L >= 0"),
    (("bounds", "--bound", "ted-upper", "--n", "-1", "--L", "9"), "n and L must be positive"),
    (("bounds", "--bound", "column-split", "--n", "3", "--d", "3", "--a-nd", "-5"),
     "A(n,d) must be at least 1, got -5"),
    (("bounds", "--bound", "column-split", "--n", "-3", "--d", "3", "--a-nd", "2"),
     "need n >= 0, got n = -3"),
    (("bounds", "--bound", "dc-1", "--n", "2", "--L", "3", "--t", "1", "--s", "-1",
      "--m-s", "4"), "need s >= 0, got s = -1"),
    (("bounds", "--table", "III", "--L", "3", "--t", "-1", "--n-min", "5", "--n-max", "5"),
     "got n = 5, t = -1"),
    (("bounds", "--table", "III", "--L", "3", "--t", "0", "--n-min", "5", "--n-max", "5"),
     "got n = 5, t = 0"),
    (("bounds", "--table", "III", "--L", "3", "--t", "0", "--n-min", "3", "--n-max", "3"),
     "got n = 3, t = 0"),
    (("bounds", "--table", "III", "--L", "3", "--t", "2", "--n-min", "0"),
     "got n = 0, t = 2"),
    (("bounds", "--bound", "sphere", "--n", "3", "--L", "2", "--d", "0"),
     "d must be at least 1, got d = 0"),
    (("bounds", "--bound", "ted-upper", "--n", "40", "--L", "40"),
     "float range (max 1.798e+308) for nL = 1600")])
def test_brute_force_parameters_out_of_range_exit_2(capsys, argv, fragment):
    """A distance below 1 or a negative length, deletion count or radius is
    a usage error with one stderr line, not a traceback (exit 1) or a
    value.  So is a construction of no rows or no columns: --L 0 is not
    read as a missing --L.  So is an interleaved construction of one row,
    which misses its distance.  So is an oracle past its size guard, which
    once enumerated 2^26 words or 2^30 arrays.  So are a packing bound of
    no rows or columns (once a ZeroDivisionError), a Singleton bound of a
    negative shape or a first-rows bound of M_s(L) < 1 (once a negative
    value) or of L < 0 (once value=16), the TED upper bound of a negative
    shape (once a math domain error), a ball around an array of negative
    shape (once the count of the 0 x 0 array), the sphere-packing bound
    at d = 0 (once a message naming neither d nor its value), and the TED
    upper bound past the float range (once an OverflowError traceback)."""
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert fragment in err


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


def test_truncated_code_file_exits_2(tmp_path, capsys):
    code_file = tmp_path / "ham.bin"
    run(capsys, "construct", "--code", "construction-1", "--n", "7", "--d", "3",
        "--out", str(code_file))
    code_file.write_bytes(code_file.read_bytes()[:-3])
    rc, _, err = run(capsys, "verify", "--code-file", str(code_file), "--d", "3")
    assert rc == 2
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_zero_size_code_header_exits_2(tmp_path, capsys):
    # r = 0 with n = L = 1000: the header alone, no body.
    code_file = tmp_path / "empty.bin"
    code_file.write_bytes(struct.pack(">4sHIIIiH", b"TEPC", 1, 0, 1000, 1000, -1, 0))
    rc, _, err = run(capsys, "verify", "--code-file", str(code_file), "--d", "3")
    assert rc == 2
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("text, fragment", [
    ('{"kind": "dc", "n": 7}', "'L'"),                                   # missing key
    ('{"kind": "ted", "n": 5, "L": 7, "t": "2", "e": 1}', "'t'"),        # mistyped key
    ('{"kind": "dc", "n": 7, "L": 5, "t": true}', "'t'"),                # bool is no int
    ('{"kind": "rs", "n": 7, "L": 5, "t": 2}', "unknown codec kind"),    # unknown kind
    ('{"kind": ["dc"], "n": 7, "L": 5, "t": 2}', "unknown codec kind"),
    ('[7, 5, 2]', "JSON object"),                                         # not an object
    ('"dc"', "JSON object"),
    ('{"kind": "dc", "n": 7, "L": 5, ', "neither"),                      # not JSON
])
def test_bad_codec_descriptor_exits_2(tmp_path, capsys, text, fragment):
    codec_file = tmp_path / "codec.json"
    codec_file.write_text(text)
    rc, _, err = run(capsys, "encode", "--code-file", str(codec_file))
    assert rc == 2
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert fragment in err


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


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("mode", [(), ("--exhaustive",)])
def test_roundtrip_work_cap_below_one_exits_2(tmp_path, capsys, cap, mode):
    """--max-work 0 once ran 100 random instances and -1 passed with no
    trials; both are usage errors in either mode."""
    te_file = tmp_path / "h.tepc"
    run(capsys, "construct", "--code", "hasse", "--n", "16", "--L", "4", "--e", "4",
        "--out", str(te_file))
    rc, out, err = run(capsys, "verify", "--roundtrip", "--code-file", str(te_file),
                       "--kind", "te", "--e", "2", "--messages", "1", *mode,
                       "--max-work", cap)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "--max-work must be at least 1" in err


@pytest.mark.parametrize("messages", ["0", "-5"])
def test_roundtrip_of_no_messages_exits_2(tmp_path, capsys, messages):
    """A round trip of no messages once printed 'roundtrip ok ... trials=0'."""
    te_file = tmp_path / "h.tepc"
    run(capsys, "construct", "--code", "hasse", "--n", "5", "--L", "3", "--e", "3",
        "--out", str(te_file))
    rc, out, err = run(capsys, "verify", "--roundtrip", "--code-file", str(te_file),
                       "--kind", "te", "--e", "2", "--messages", messages)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "messages must be at least 1" in err


ROUNDTRIP_OPTIONS = (("--kind", "te"), ("--e", "1"), ("--t", "1"), ("--s", "1"),
                     ("--seed", "0"), ("--messages", "20"), ("--exhaustive",),
                     ("--max-work", "5"))


@pytest.mark.parametrize("argv, error", [
    # Both once printed their result and exited 0, the stray options unread.
    (("--d", "4", "--max-work", "1", "--messages", "0", "--kind", "del", "--seed", "3"),
     "verify without --roundtrip does not read --seed, --kind, --messages, --max-work"),
    (("--roundtrip", "--kind", "te", "--e", "1", "--d", "99"),
     "verify --roundtrip --kind te does not read --d"),
    # Each round-trip option alone, at its round-trip default where it has one.
    *[(("--d", "4", *option), f"verify without --roundtrip does not read {option[0]}")
      for option in ROUNDTRIP_OPTIONS],
])
def test_verify_rejects_an_option_of_the_other_mode(tmp_path, capsys, argv, error):
    te_file = tmp_path / "h.tepc"
    run(capsys, "construct", "--code", "hasse", "--n", "16", "--L", "4", "--e", "4",
        "--out", str(te_file))
    rc, out, err = run(capsys, "verify", "--code-file", str(te_file), *argv)
    assert rc == 2 and out == ""
    assert err == f"usage error: {error}\n"


def test_roundtrip_defaults_are_seed_0_and_20_messages(tmp_path, capsys):
    te_file = tmp_path / "h.tepc"
    run(capsys, "construct", "--code", "hasse", "--n", "5", "--L", "3", "--e", "3",
        "--out", str(te_file))
    argv = ("verify", "--roundtrip", "--code-file", str(te_file), "--kind", "te",
            "--e", "2", "--max-work", "3")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and "seed=0 trials=60 failures=0" in out
    assert run(capsys, *argv, "--seed", "0", "--messages", "20") == (rc, out, "")


@pytest.mark.parametrize("d", ["0", "-4"])
def test_verify_distance_below_one_exits_2(tmp_path, capsys, d):
    """--d -4 once printed 'minimum TE distance at least -3' and exited 0."""
    te_file = tmp_path / "h.tepc"
    run(capsys, "construct", "--code", "hasse", "--n", "5", "--L", "3", "--e", "3",
        "--out", str(te_file))
    rc, out, err = run(capsys, "verify", "--code-file", str(te_file), "--d", d)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "max_e must be at least 1" in err


@pytest.mark.parametrize("kind", [("del", "--t", "2", "--s", "0"),
                                  ("del", "--t", "0", "--s", "1"),
                                  ("ted", "--t", "1", "--s", "0", "--e", "1")])
def test_a_deletion_channel_that_deletes_nothing_exits_2(tmp_path, capsys, kind):
    """--kind del with --t 2 --s 0 once passed an exhaustive round trip of
    no trials, and its random draw raised on some seeds only."""
    dc_file, arr_file = tmp_path / "dc.json", tmp_path / "arr.txt"
    run(capsys, "construct", "--code", "dc", "--n", "7", "--L", "5", "--t", "2",
        "--out", str(dc_file))
    arr_file.write_text("# L=5\n" + "00000\n" * 7)
    spec = ("--kind", *kind)
    runs = [("verify", "--roundtrip", "--code-file", str(dc_file), *spec,
             "--messages", "1", *mode) for mode in (("--exhaustive",), ())]
    runs += [("channel", *spec, "--seed", str(seed), "--in", str(arr_file))
             for seed in range(5)]
    for argv in runs:
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "of at least 1" in err


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


def test_encode_of_a_message_of_the_wrong_length_exits_2(tmp_path, capsys):
    dc_file, msg_file = tmp_path / "dc.json", tmp_path / "msg.txt"
    run(capsys, "construct", "--code", "dc", "--n", "7", "--L", "5", "--t", "2",
        "--out", str(dc_file))
    msg_file.write_text("0" * 28 + "\n")
    rc, out, err = run(capsys, "encode", "--code-file", str(dc_file), "--in", str(msg_file))
    assert rc == 2 and out == ""
    assert err == "usage error: codec expects 29 message bits, got 28\n"


def test_roundtrip_with_the_other_channel_family_exits_2(tmp_path, capsys):
    """A DC/TED codec cannot take the te channel's erased arrays and a TE
    codec cannot take ragged arrays: one usage line, exit 2, no trials."""
    dc_file = tmp_path / "dc.json"
    te_file = tmp_path / "ham.tepc"
    run(capsys, "construct", "--code", "dc", "--n", "7", "--L", "5", "--t", "2",
        "--out", str(dc_file))
    run(capsys, "construct", "--code", "construction-1", "--n", "7", "--d", "3",
        "--out", str(te_file))
    cases = ((dc_file, ("--kind", "te", "--e", "2")),
             (te_file, ("--kind", "del", "--t", "1", "--s", "1")),
             (te_file, ("--kind", "ted", "--t", "1", "--s", "1", "--e", "1")))
    for code_file, kind in cases:
        rc, out, err = run(capsys, "verify", "--code-file", str(code_file),
                           "--roundtrip", *kind, "--exhaustive", "--messages", "1")
        assert rc == 2, (code_file.name, kind)
        assert out == "" and err.count("\n") == 1 and "cannot round-trip" in err
    rc, out, _ = run(capsys, "verify", "--code-file", str(te_file), "--roundtrip",
                     "--kind", "te", "--e", "2", "--exhaustive", "--messages", "1")
    assert rc == 0 and "failures=0" in out


def test_decode_of_an_array_of_the_wrong_row_count_exits_2(tmp_path, capsys):
    """The decoders raise InvalidInputError for a wrong shape; it is also a
    ValueError, so the CLI reports a usage error (exit 2), not a
    verification failure (exit 1)."""
    ted_file = tmp_path / "ted.json"
    te_file = tmp_path / "ham.tepc"
    run(capsys, "construct", "--code", "ted", "--n", "5", "--L", "7", "--t", "2",
        "--e", "1", "--out", str(ted_file))
    run(capsys, "construct", "--code", "construction-1", "--n", "7", "--d", "3",
        "--out", str(te_file))
    for code_file, text in ((ted_file, "# L=7\n" + "0000000\n" * 4),
                            (te_file, "# L=1\n" + "0\n" * 6)):
        received = tmp_path / "recv.txt"
        received.write_text(text)
        rc, out, err = run(capsys, "decode", "--code-file", str(code_file),
                           "--in", str(received))
        assert rc == 2 and out == "", code_file.name
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "shape mismatch" in err


@pytest.mark.parametrize("text, fragment", [
    ("# L=7\n0?10110\n", "may only end a row"),
    ("# L=7\n0110??\n", "must have length L=7"),
    ("# L=7\n0110210\n", "bad character"),
    ("0110101\n1110101\n", "row length"),
])
@pytest.mark.parametrize("code", [("ted", "--n", "5", "--L", "7", "--t", "2", "--e", "1"),
                                  ("hasse", "--n", "5", "--L", "7", "--e", "2")],
                         ids=["ted", "te"])
def test_decode_of_a_malformed_received_file_exits_2(tmp_path, capsys, code, text,
                                                     fragment):
    """A '?' inside a row, a '?' tail on a short row, another character and
    a missing '# L=' line each exit 2 with one line on stderr."""
    code_file = tmp_path / "code.bin"
    run(capsys, "construct", "--code", *code, "--out", str(code_file))
    received = tmp_path / "recv.txt"
    received.write_text(text)
    rc, out, err = run(capsys, "decode", "--code-file", str(code_file),
                       "--in", str(received))
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert fragment in err


def test_encode_and_channel_reject_a_question_mark(tmp_path, capsys):
    code_file = tmp_path / "ted.json"
    run(capsys, "construct", "--code", "ted", "--n", "5", "--L", "7", "--t", "1",
        "--e", "1", "--out", str(code_file))
    bad = tmp_path / "bad.txt"
    for argv, text, fragment in (
            (("encode", "--code-file", str(code_file)), "1?" * 12, "found '?'"),
            (("channel", "--kind", "te", "--e", "1"), "# L=3\n101\n01?\n",
             "unexpected erasure marks")):
        bad.write_text(text)
        rc, out, err = run(capsys, *argv, "--in", str(bad))
        assert rc == 2 and out == "", argv[0]
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert fragment in err


@pytest.mark.parametrize("desc", [{"kind": "dc", "n": 31, "L": 2**40, "t": 8},
                                  {"kind": "ted", "n": 4, "L": 2**29 + 100, "t": 1, "e": 2}])
def test_descriptor_without_outer_field_exits_2(tmp_path, capsys, desc):
    codec_file = tmp_path / "codec.json"
    codec_file.write_text(json.dumps(desc))
    rc, out, err = run(capsys, "encode", "--code-file", str(codec_file))
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "h + e" in err


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


@pytest.mark.parametrize("argv, error", [
    (("construct", "--code", "dc", "--n", "7", "--L", "5", "--t", "2", "--e", "1", "--d", "9"),
     "construct --code dc does not read --e, --d"),
    (("construct", "--code", "claim-5", "--n", "9", "--L", "7"),
     "construct --code claim-5 does not read --L"),
    (("construct", "--code", "even-ext", "--n", "5", "--d", "6", "--L", "9"),
     "construct --code even-ext does not read --L unless --d 2"),
    (("channel", "--kind", "te", "--e", "1", "--t", "3", "--s", "2"),
     "channel --kind te does not read --t, --s"),
    (("channel", "--kind", "te", "--e", "2", "--pattern", "2,0,0,0,0,0,0", "--seed", "4"),
     "channel --kind te does not read --seed with --pattern"),
    (("verify", "--roundtrip", "--kind", "te", "--e", "1", "--t", "5", "--s", "3"),
     "verify --roundtrip --kind te does not read --t, --s"),
    (("bounds", "--bound", "v-te", "--n", "3", "--L", "2", "--r", "2", "--d", "3", "--t", "4",
      "--n-min", "9", "--format", "records"),
     "bounds --bound v-te does not read --t, --d, --format, --n-min"),
    (("oracle", "--which", "m-s", "--L", "4", "--s", "1", "--n", "5", "--d", "2", "--seed", "7"),
     "oracle --which m-s does not read --n, --d, --seed"),
])
def test_options_once_left_unread_exit_2(tmp_path, capsys, argv, error):
    """Each line once exited 0 with the named options unread; the dc line
    wrote a DC code where a TED code was asked for."""
    out, arr = tmp_path / "out.txt", tmp_path / "arr.txt"
    arr.write_text("# L=5\n" + "00000\n" * 7)
    rc, stdout, err = run(capsys, *argv, *{
        "verify": ("--code-file", str(tmp_path / "te.tepc")),
        "channel": ("--in", str(arr), "--out", str(out))}.get(argv[0], ("--out", str(out))))
    assert (rc, stdout, err) == (2, "", f"usage error: {error}\n")
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


def test_abbreviations_on_real_files_exit_2(tmp_path, capsys):
    """`--e`, `--mess` and `--max` are prefixes of decode's and verify's
    options, not options: each line exits 2 and prints nothing to stdout."""
    dc_file, arr, recv = (tmp_path / name for name in ("dc.json", "arr.txt", "recv.txt"))
    msg = tmp_path / "msg.txt"
    msg.write_text("0" * 29)
    run(capsys, "construct", "--code", "dc", "--n", "7", "--L", "5", "--t", "2",
        "--out", str(dc_file))
    run(capsys, "encode", "--code-file", str(dc_file), "--in", str(msg), "--out", str(arr))
    run(capsys, "channel", "--kind", "del", "--t", "2", "--s", "1", "--seed", "5",
        "--in", str(arr), "--out", str(recv))
    rc, out, _ = run(capsys, "decode", "--code-file", str(dc_file), "--in", str(recv),
                     "--emit-message")
    assert rc == 0 and out == "0" * 29 + "\n"
    for argv in (["decode", "--code-file", str(dc_file), "--in", str(recv), "--e"],
                 ["verify", "--code-file", str(dc_file), "--roundtrip", "--kind", "del",
                  "--t", "1", "--s", "1", "--mess", "1", "--max", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err


@pytest.mark.parametrize("code", [("dc", "--n", "7", "--L", "5", "--t", "2"),
                                  ("ted", "--n", "5", "--L", "7", "--t", "1", "--e", "1")])
def test_roundtrip_without_kind_exits_2(tmp_path, capsys, code):
    """A round trip names its channel: without --kind it is one usage line
    naming --kind, whatever the codec."""
    code_file = tmp_path / "codec.json"
    run(capsys, "construct", "--code", *code, "--out", str(code_file))
    rc, out, err = run(capsys, "verify", "--code-file", str(code_file), "--roundtrip",
                       "--t", "1", "--s", "1", "--e", "1", "--messages", "1")
    assert rc == 2 and out == ""
    assert err == "usage error: --kind is required here\n"


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

@pytest.mark.parametrize("text, bad", [("hello 1010101 world", "'h'"),
                                       ("1010101,", "','"),
                                       ("10101\n01x", "'x'"),
                                       ("1 0 1 0 1 0 1 2", "'2'")])
def test_encode_rejects_message_text_other_than_bits(tmp_path, capsys, text, bad):
    codec_file = tmp_path / "ted.json"
    run(capsys, "construct", "--code", "ted", "--n", "5", "--L", "7",
        "--t", "1", "--e", "1", "--out", str(codec_file))
    msg_file = tmp_path / "msg.txt"
    msg_file.write_text(text)
    rc, out, err = run(capsys, "encode", "--code-file", str(codec_file),
                       "--in", str(msg_file))
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert bad in err


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


@pytest.mark.parametrize("option", ["--in", "--code-file", "--out"])
def test_a_path_that_cannot_be_read_or_written_exits_2(tmp_path, capsys, option):
    """A directory named as a file is an OSError, as is a file that cannot
    be read: a usage error (exit 2) with one stderr line, not a traceback
    and the exit 1 of a verification failure."""
    code = DcCode(5, 4, 1)
    code_file = tmp_path / "dc.json"
    code_file.write_text(json.dumps(code.descriptor()))
    received = tmp_path / "recv.txt"
    received.write_text(format_bit_array(code.encode([0] * code.message_bits)))
    paths = {"--in": received, "--code-file": code_file, "--out": tmp_path / "out.txt"}
    paths[option] = tmp_path
    rc, out, err = run(capsys, "decode", *(str(v) for kv in paths.items() for v in kv))
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("pattern, fragment", [
    ("", "invalid literal"), ("1.5,0", "invalid literal"),
    ("1,0,0", "pattern length does not match row count"),
    ("2,1", "instance exceeds the e budget")])
def test_channel_with_a_bad_pattern_exits_2(tmp_path, capsys, pattern, fragment):
    """An explicit --pattern is applied even when it is empty; a random
    instance is drawn only when the option is absent."""
    array_file = tmp_path / "arr.txt"
    array_file.write_text("# L=3\n101\n011\n")
    rc, out, err = run(capsys, "channel", "--kind", "te", "--e", "2",
                       "--pattern", pattern, "--in", str(array_file))
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert fragment in err


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
    ("zero r", _tepc(r=0), "r=0"),
    ("zero n", _tepc(n=0), "n=0"),
    ("zero L blob", _tepc(L=0), "L=0"),
    ("short body", _tepc(cut=1), "body has 11 bytes"),
    ("non-UTF-8 provenance", _tepc(provenance=b"\xff\xfe"), "utf-8"),
]

# (case, array file, a fragment of its message): neither decode nor channel
# may read these.
BAD_ARRAY_FILES = [
    ("word L", "# L=x\n10\n", "invalid literal"),
    ("float L", "# L=3.5\n101\n", "invalid literal"),
    ("empty L", "# L=\n101\n", "invalid literal"),
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


@pytest.mark.parametrize("desc", [{"kind": "ted", "n": 1, "L": 10**9, "t": 0, "e": 0},
                                  {"kind": "dc", "n": 2, "L": 10**9, "t": 1}],
                         ids=["ted", "dc"])
def test_decode_refuses_a_code_past_the_cell_cap(tmp_path, capsys, desc):
    """A valid descriptor of 10^9-position rows is a usage error at load,
    before any array of that size is read or drawn."""
    code_file, in_file = tmp_path / "code.json", tmp_path / "in.txt"
    code_file.write_text(json.dumps(desc))
    in_file.write_text(f"# L={10**9}\n1\n")
    rc, out, err = run(capsys, "decode", "--code-file", str(code_file),
                       "--in", str(in_file))
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert f"more than the {MAX_CELLS}" in err


@pytest.mark.parametrize("argv", [["--code", "dc", "--n", "4097", "--L", "4096", "--t", "1"],
                                  ["--code", "ted", "--n", "2", "--L", str(10**9),
                                   "--t", "0", "--e", "1"]],
                         ids=["dc", "ted"])
def test_construct_refuses_a_code_past_the_cell_cap(tmp_path, capsys, argv):
    """`construct` refuses what `decode` would refuse to load, and writes
    no file."""
    code_file = tmp_path / "code.json"
    rc, out, err = run(capsys, "construct", *argv, "--out", str(code_file))
    assert rc == 2 and out == "" and not code_file.exists()
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert f"more than the {MAX_CELLS}" in err


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
