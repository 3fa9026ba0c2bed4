"""Secure logging ($(slog)) conformance + Ray integration.

Protocol pins are deterministic outputs of the reference algorithm
(modules/secure-logging/slog.c) — the primitives (AES-256-CMAC,
AES-256-GCM) are OpenSSL-backed in both implementations, so fixed
key/IV inputs give byte-identical lines. The end-to-end flow ports
tests/light/functional_tests/template_functions/slog/
test_secure_logging.py (slogkey derive -> $(slog) encrypt ->
slogverify decrypt, original messages recovered)."""
import os

import pandas as pd
import pytest
import ray

from axosyslog_ray.functions import slog

pytestmark = pytest.mark.skipif(
    not slog.HAVE_CRYPTO, reason="cryptography package not available")

K = bytes(range(32))


def test_key_evolution_pins():
    # forward-security step + subkey derivation (slog.c:467,87-95)
    assert slog.evolve_key(K).hex() == (
        "867c87e6d30c1de026d6cb948aabe05ba8e070a81c2c766735def3bf195bc876")
    assert slog.derive_enc_subkey(K).hex() == (
        "4c0faabe5d250a3cce45007c589d0bb5f1ee0f736c391c19e4399ac3bd7c8592")
    assert slog.derive_mac_subkey(K).hex() == (
        "c49b37b5807fb91a10c8cc928d2f9928fdc20b6f38be9224cd905a414f5e58c1")
    assert slog.cmac(K, b"0123456789abcdef").hex() == (
        "786df98d1adfaca25ab32b515193b28c")


def test_host_key_is_sha256_concat():
    # slog.c:546 with the Light suite's macAddr / serial test constants
    import hashlib
    got = slog.derive_host_key(K, "a08cefa7b520", "CAC7119N43")
    assert got == hashlib.sha256(K + b"a08cefa7b520" + b"CAC7119N43").digest()
    assert got.hex().startswith("1b479618")


def test_entry_line_pins():
    # counter is base64 of the LE uint64; payload is base64(IV||tag||ct)
    line, mac = slog.slog_entry(0, "this is a test message", K, None,
                                iv=bytes(12))
    assert line == ("AAAAAAAAAAA=:AAAAAAAAAAAAAAAAQ/QEoYWBvMttF7HOc+XNxklG2"
                    "uBAOHjD4rPv4SY2kUApnS4nFeg=")
    assert mac.hex() == "330cb17cf3bbd3af1f1c9a37efd571fc"
    line2, mac2 = slog.slog_entry(1, "second message", slog.evolve_key(K),
                                  mac, iv=bytes(range(12)))
    assert line2 == "AQAAAAAAAAA=:AAECAwQFBgcICQoLdtrWdMDmgEPKB+SAQr93/mhjQH0jXlXbfyvY8dZX"
    assert mac2.hex() == "80a06b6137165aa96300ef77f19748cd"


def test_entry_rejects_empty_and_bad_iv():
    with pytest.raises(ValueError):
        slog.slog_entry(0, "", K, None)
    with pytest.raises(ValueError):
        slog.slog_entry(0, "x", K, None, iv=b"short")


def test_key_file_roundtrip_and_corruption(tmp_path):
    p = str(tmp_path / "host.key")
    slog.write_key(p, K, 42)
    key, counter = slog.read_key(p)
    assert key == K and counter == 42
    raw = bytearray(open(p, "rb").read())
    raw[3] ^= 0xFF
    open(p, "wb").write(bytes(raw))
    with pytest.raises(ValueError, match="corrupt"):
        slog.read_key(p)


def test_mac_file_roundtrip_and_corruption(tmp_path):
    p = str(tmp_path / "mac.dat")
    mac = bytes(range(16))
    slog.write_mac(p, mac)
    assert slog.read_mac(p) == mac
    raw = bytearray(open(p, "rb").read())
    raw[0] ^= 1
    open(p, "wb").write(bytes(raw))
    with pytest.raises(ValueError, match="corrupt"):
        slog.read_mac(p)


def _encrypt(messages, key0):
    w = slog.SlogWriter(key0)
    return [w.entry(m) for m in messages], w


def test_light_suite_flow(tmp_path):
    # Light test_secure_logging.py: derive host key, $(slog) each
    # message, slogverify-decrypt, compare to the originals.
    master = bytes(reversed(range(32)))
    k0 = slog.derive_host_key(master, "a08cefa7b520", "CAC7119N43")
    msgs = [f"this is a test message {i:03d}" for i in range(25)]
    lines, w = _encrypt(msgs, k0)
    w.save(str(tmp_path / "host.key"), str(tmp_path / "mac.dat"))

    key, counter = slog.read_key(str(tmp_path / "host.key"))
    assert counter == 25
    assert key == slog.derive_key(k0, 25, 0)  # forward-evolved, not k0

    rec, ok, problems = slog.verify_entries(
        lines, k0, 0, expected_count=25,
        big_mac=slog.read_mac(str(tmp_path / "mac.dat")))
    assert ok and not problems
    # recovered format: '%020x: <plaintext>' (slog.c:1110)
    assert rec[0] == f"{0:020x}: {msgs[0]}"
    assert [r.split(": ", 1)[1] for r in rec] == msgs


def test_writer_resume_across_runs(tmp_path):
    # run 1 logs 10, saves; run 2 resumes from files and logs 10 more —
    # the single chain verifies end-to-end from k0.
    k0 = slog.derive_host_key(K, "mac", "serial")
    kp, mp = str(tmp_path / "k"), str(tmp_path / "m")
    w = slog.SlogWriter(k0)
    lines = [w.entry(f"run1 msg {i}") for i in range(10)]
    w.save(kp, mp)
    w2 = slog.SlogWriter.from_files(kp, mp)
    assert w2.counter == 10
    lines += [w2.entry(f"run2 msg {i}") for i in range(10)]
    w2.save(kp, mp)
    rec, ok, problems = slog.verify_entries(
        lines, k0, 0, expected_count=20, big_mac=slog.read_mac(mp))
    assert ok and not problems
    assert rec[-1].endswith("run2 msg 9")


def test_tamper_detection():
    k0 = slog.derive_host_key(K, "m", "s")
    lines, w = _encrypt([f"msg {i}" for i in range(5)], k0)
    # flip one ciphertext byte -> that entry fails decrypt + MAC mismatch
    bad = list(lines)
    body = bad[2]
    bad[2] = body[:-2] + ("A" if body[-2] != "A" else "B") + body[-1]
    rec, ok, problems = slog.verify_entries(bad, k0, 0, expected_count=5,
                                            big_mac=w.mac)
    assert not ok
    assert any("decryption failed" in p for p in problems)
    assert any("unable to recover entry 2" in p for p in problems)


def test_missing_and_duplicate_entries():
    k0 = slog.derive_host_key(K, "m", "s")
    lines, w = _encrypt([f"msg {i}" for i in range(6)], k0)
    # drop entry 3: verifier derives past the gap (deriveKey fast-forward)
    # and reports the missing counter
    rec, ok, problems = slog.verify_entries(
        lines[:3] + lines[4:], k0, 0, expected_count=6)
    assert not ok
    assert any("unable to recover entry 3" in p for p in problems)
    assert len(rec) == 5  # the other five still decrypt
    # duplicate entry 2
    rec, ok, problems = slog.verify_entries(
        lines[:3] + [lines[2]] + lines[3:], k0, 0, expected_count=6)
    assert not ok
    assert any("duplicate entry 2" in p for p in problems)


def test_out_of_order_rewind():
    k0 = slog.derive_host_key(K, "m", "s")
    lines, _ = _encrypt([f"msg {i}" for i in range(4)], k0)
    swapped = [lines[0], lines[2], lines[1], lines[3]]
    rec, ok, problems = slog.verify_entries(swapped, k0, 0, expected_count=4)
    # all four decrypt (rewind from k0), but order violation is flagged
    assert len(rec) == 4
    assert not ok
    assert any("rewind" in p for p in problems)


def test_wrong_key_fails():
    k0 = slog.derive_host_key(K, "m", "s")
    lines, _ = _encrypt(["a message"], k0)
    rec, ok, problems = slog.verify_entries(lines, os.urandom(32), 0,
                                            expected_count=1)
    assert not ok and not rec


def test_encrypt_shards_ray(ray_session, tmp_path):
    out = str(tmp_path / "slog_out")
    master = bytes(range(32))
    df = pd.DataFrame({
        "shard": ["a", "b"] * 10,
        "seq": list(range(20)),
        "line": [f"message {i}" for i in range(20)],
    })
    ds = ray.data.from_pandas(df)
    summary = slog.encrypt_shards(ds, "line", master, out,
                                  shard_col="shard", order_col="seq",
                                  num_buckets=2).to_pandas()
    assert sorted(summary["shard"]) == ["a", "b"]
    assert summary["entries"].tolist() == [10, 10]
    for shard in ("a", "b"):
        rec, ok, problems = slog.verify_shard(out, shard, master)
        assert ok and not problems, problems
        want = [f"message {i}" for i in range(20)
                if (["a", "b"] * 10)[i] == shard]
        assert [r.split(": ", 1)[1] for r in rec] == want


class TestSlogtoolCli:
    """slogkey/slogencrypt/slogverify CLI analogue
    (modules/secure-logging tools; axosyslog_ray/slogtool.py)."""

    def test_full_key_encrypt_verify_cycle(self, tmp_path, capsys):
        import shutil

        from axosyslog_ray.slogtool import main
        mk = str(tmp_path / "master.key")
        hk = str(tmp_path / "host.key")
        hk0 = str(tmp_path / "host0.key")
        mac = str(tmp_path / "host.mac")
        assert main(["key-gen", mk]) == 0
        assert main(["derive-key", mk, "aa:bb:cc:dd:ee:ff", "serial1",
                     hk]) == 0
        shutil.copy(hk, hk0)  # keep k0 for verification (reference flow)
        inp = tmp_path / "plain.log"
        inp.write_text("first entry\nsecond entry\nthird entry\n")
        enc = str(tmp_path / "enc.slog")
        assert main(["encrypt", hk, mac, str(inp), enc]) == 0
        capsys.readouterr()
        assert main(["counter-show", hk]) == 0
        assert capsys.readouterr().out.strip() == "3"
        out = str(tmp_path / "recovered.log")
        assert main(["verify", hk0, mac, enc, out]) == 0
        rec = open(out).read().splitlines()
        assert len(rec) == 3
        assert rec[0].endswith("first entry")
        assert rec[2].endswith("third entry")

    def test_verify_detects_tamper(self, tmp_path, capsys):
        import shutil

        from axosyslog_ray.slogtool import main
        mk = str(tmp_path / "m.key")
        hk = str(tmp_path / "h.key")
        hk0 = str(tmp_path / "h0.key")
        mac = str(tmp_path / "h.mac")
        main(["key-gen", mk])
        main(["derive-key", mk, "00:11:22:33:44:55", "s", hk])
        shutil.copy(hk, hk0)
        inp = tmp_path / "p.log"
        inp.write_text("alpha\nbeta\n")
        enc = tmp_path / "e.slog"
        main(["encrypt", hk, mac, str(inp), str(enc)])
        lines = enc.read_text().splitlines()
        # flip a ciphertext character in the second entry, ahead of the
        # last base64 quantum: a character there may carry only padding
        # bits, which decode to the same bytes
        c = lines[1][-6]
        tampered = lines[1][:-6] + ("A" if c != "A" else "B") + lines[1][-5:]
        enc.write_text(lines[0] + "\n" + tampered + "\n")
        out = str(tmp_path / "r.log")
        assert main(["verify", hk0, mac, str(enc), out]) == 1
