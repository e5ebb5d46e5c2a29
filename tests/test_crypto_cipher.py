"""Unit + property tests for the authenticated channel cipher."""

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.cipher import ChannelCipher, derive_keys, open_sealed, seal
from repro.errors import ChannelError, ValidationError

SECRET = b"m" * 32


def _keys():
    return derive_keys(SECRET)


def test_derive_keys_independent_and_stable():
    enc1, mac1 = derive_keys(SECRET)
    enc2, mac2 = derive_keys(SECRET)
    assert enc1 == enc2 and mac1 == mac2
    assert enc1 != mac1
    with pytest.raises(ValidationError):
        derive_keys(b"short")


def test_seal_open_roundtrip():
    enc, mac = _keys()
    record = seal(enc, mac, 0, b"pay 5 G$", rng=random.Random(1))
    assert open_sealed(enc, mac, 0, record) == b"pay 5 G$"


def test_ciphertext_differs_from_plaintext():
    enc, mac = _keys()
    record = seal(enc, mac, 0, b"A" * 64, rng=random.Random(1))
    assert b"A" * 64 not in record


def test_wrong_sequence_rejected():
    enc, mac = _keys()
    record = seal(enc, mac, 3, b"msg", rng=random.Random(1))
    with pytest.raises(ChannelError):
        open_sealed(enc, mac, 4, record)


def test_tampered_record_rejected():
    enc, mac = _keys()
    record = bytearray(seal(enc, mac, 0, b"msg", rng=random.Random(1)))
    record[20] ^= 0xFF
    with pytest.raises(ChannelError):
        open_sealed(enc, mac, 0, bytes(record))


def test_truncated_record_rejected():
    enc, mac = _keys()
    with pytest.raises(ChannelError):
        open_sealed(enc, mac, 0, b"tiny")


def test_wrong_key_rejected():
    enc, mac = _keys()
    enc2, mac2 = derive_keys(b"n" * 32)
    record = seal(enc, mac, 0, b"msg", rng=random.Random(1))
    with pytest.raises(ChannelError):
        open_sealed(enc2, mac2, 0, record)


def test_seal_known_answer():
    """SHAKE-256 keystream, HMAC-SHA-256 tag over nonce || seq || ciphertext."""
    record = seal(
        bytes(range(32)), bytes(range(32, 64)), 5, b"pay 12.5 G$ to 0000000000000043",
        rng=random.Random(7),
    )
    assert record.hex() == (
        "6513270e269e0d37f2a74de452e6b438"
        "fb0758b5225caed444a51188011ba19902660bb601e09a2d5a7a45fc08e9c756"
        "8545f522764ae4ec12a14bb845dd66c6930227fd1ad390dc2a045f90444c47"
    )


def test_derive_keys_known_answer():
    enc, mac = derive_keys(SECRET)
    assert enc.hex() == "aefd4526b951010a534cca31d83cd7bf6dbbbc273ad5833019720606eedd5842"
    assert mac.hex() == "aef703b6eae6fe0656206564a690e8b536085f85af48f8ca1184bac55a458e87"


def _sha256_ctr_seal(master: bytes, seq: int, plaintext: bytes, nonce: bytes) -> bytes:
    """The SHA-256 counter-mode record this cipher replaced, for refusal tests."""
    enc = hmac.new(master, b"gridbank-enc", hashlib.sha256).digest()
    mac = hmac.new(master, b"gridbank-mac", hashlib.sha256).digest()
    blocks = (
        hashlib.sha256(enc + nonce + counter.to_bytes(8, "big")).digest()
        for counter in range((len(plaintext) + 31) // 32)
    )
    stream = b"".join(blocks)[: len(plaintext)]
    ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
    tag = hmac.new(mac, nonce + seq.to_bytes(8, "big") + ciphertext, hashlib.sha256).digest()
    return nonce + ciphertext + tag


def test_record_from_sha256_ctr_peer_refused():
    """A peer still sealing with the old construction fails at the MAC — it
    never decrypts to garbage — whatever the plaintext length."""
    receiver = ChannelCipher(SECRET, rng=random.Random(2))
    enc, mac = _keys()
    for seq, size in enumerate((0, 1, 33, 4096)):
        record = _sha256_ctr_seal(SECRET, seq, b"p" * size, b"\x07" * 16)
        with pytest.raises(ChannelError, match="MAC"):
            open_sealed(enc, mac, seq, record)
        with pytest.raises(ChannelError, match="MAC"):
            receiver.unprotect(seq.to_bytes(8, "big") + record)


@pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 26 * 1024])
def test_roundtrip_at_block_edges_and_statement_size(size):
    payload = bytes(random.Random(size).getrandbits(8) for _ in range(size))
    sender = ChannelCipher(SECRET, rng=random.Random(1))
    receiver = ChannelCipher(SECRET, rng=random.Random(2))
    record = sender.protect(payload)
    assert len(record) == 8 + 16 + size + 32
    assert receiver.unprotect(record) == payload


class TestChannelCipher:
    def test_duplex_conversation(self):
        alice = ChannelCipher(SECRET, rng=random.Random(1))
        bank = ChannelCipher(SECRET, rng=random.Random(2))
        for i in range(5):
            msg = f"request {i}".encode()
            assert bank.unprotect(alice.protect(msg)) == msg
        assert alice.sent == 5
        assert bank.received == 5

    def test_replay_rejected(self):
        alice = ChannelCipher(SECRET, rng=random.Random(1))
        bank = ChannelCipher(SECRET, rng=random.Random(2))
        record = alice.protect(b"transfer 10")
        bank.unprotect(record)
        with pytest.raises(ChannelError):
            bank.unprotect(record)  # replayed record: seq has advanced

    def test_gap_tolerated_but_stale_rejected(self):
        alice = ChannelCipher(SECRET, rng=random.Random(1))
        bank = ChannelCipher(SECRET, rng=random.Random(2))
        r1 = alice.protect(b"one")
        r2 = alice.protect(b"two")
        # r1 lost in transit: r2 still opens (gap in sequence)...
        assert bank.unprotect(r2) == b"two"
        # ...but the late/stale r1 can never be delivered afterwards
        with pytest.raises(ChannelError):
            bank.unprotect(r1)

    def test_truncated_sequence_header_rejected(self):
        bank = ChannelCipher(SECRET, rng=random.Random(2))
        with pytest.raises(ChannelError):
            bank.unprotect(b"\x00\x01")

    @given(st.binary(min_size=0, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_arbitrary_payloads(self, payload):
        a = ChannelCipher(SECRET, rng=random.Random(9))
        b = ChannelCipher(SECRET, rng=random.Random(10))
        assert b.unprotect(a.protect(payload)) == payload

    @given(st.binary(min_size=1, max_size=100), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_any_bitflip_detected(self, payload, position):
        a = ChannelCipher(SECRET, rng=random.Random(9))
        b = ChannelCipher(SECRET, rng=random.Random(10))
        record = bytearray(a.protect(payload))
        record[position % len(record)] ^= 0x80
        with pytest.raises(ChannelError):
            b.unprotect(bytes(record))
