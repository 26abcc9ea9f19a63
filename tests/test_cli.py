import json
import random
import struct

import pytest

from arraycodes.cli import main


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
    assert rc == 0 and "?" in recv_file.read_text()
    rc, out, _ = run(capsys, "decode", "--code-file", str(code_file),
                     "--in", str(recv_file), "--emit-message")
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


def test_usage_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "construct", "--code", "construction-1", "--n", "7")
    assert rc == 2 and "usage error" in err
    rc, _, err = run(capsys, "encode", "--code-file", str(tmp_path / "missing.json"))
    assert rc == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
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
    assert rc == 0 and out == "0000000\n" * 5


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
