import json
import random

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
