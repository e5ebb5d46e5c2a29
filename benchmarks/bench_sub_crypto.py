"""SUB-CRYPTO — cryptographic substrate micro-benchmarks.

RSA keygen/sign/verify, public-key encryption (handshake key exchange),
channel record protection, certificate chain validation, and the full GSS
handshake — the fixed costs every GridBank interaction pays — plus the two
per-byte costs of a statement-sized reply: the sealed record and the
canonical codec.
"""

import random

import pytest

from repro.crypto.cipher import ChannelCipher
from repro.crypto.rsa import decrypt_bytes, encrypt_bytes, generate_keypair
from repro.crypto.signature import sign, verify
from repro.gsi.context import Role, SecurityContext
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore, validate_chain
from repro.util.gbtime import Timestamp, VirtualClock
from repro.util.money import Credits
from repro.util.serialize import canonical_dumps, canonical_loads


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(bits=512, rng=random.Random(1101))


@pytest.fixture(scope="module")
def keys_1024():
    """The CLI-default key size: what a served bank signs with."""
    return generate_keypair(bits=1024, rng=random.Random(1103))


@pytest.fixture(scope="module")
def pki():
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock,
        rng=random.Random(1102), key_bits=512,
    )
    alice = ca.issue_identity(DistinguishedName("VO-A", "alice"), key_bits=512)
    bank = ca.issue_identity(DistinguishedName("GridBank", "server"), key_bits=512)
    store = CertificateStore([ca.root_certificate])
    return {"clock": clock, "ca": ca, "alice": alice, "bank": bank, "store": store}


def test_crypto_keygen_512(benchmark):
    seeds = iter(range(10_000))

    def keygen():
        return generate_keypair(bits=512, rng=random.Random(next(seeds)))

    kp = benchmark.pedantic(keygen, rounds=10, iterations=1)
    assert kp.public.bits == 512


def test_crypto_keygen_1024(benchmark):
    seeds = iter(range(10_000))

    def keygen():
        return generate_keypair(bits=1024, rng=random.Random(next(seeds)))

    kp = benchmark.pedantic(keygen, rounds=10, iterations=1)
    assert kp.public.bits == 1024


def test_crypto_sign(benchmark, keys):
    message = {"op": "transfer", "amount_micro": 4_500_000}
    signature = benchmark(sign, keys.private, message)
    assert verify(keys.public, message, signature)


def test_crypto_sign_1024(benchmark, keys_1024):
    message = {"op": "transfer", "amount_micro": 4_500_000}
    signature = benchmark(sign, keys_1024.private, message)
    assert verify(keys_1024.public, message, signature)


def test_crypto_verify(benchmark, keys):
    message = {"op": "transfer", "amount_micro": 4_500_000}
    signature = sign(keys.private, message)
    assert benchmark(verify, keys.public, message, signature)


def test_crypto_pk_encrypt_decrypt(benchmark, keys):
    rng = random.Random(5)

    def roundtrip():
        ciphertext = encrypt_bytes(keys.public, b"pre-master-secret-32-bytes!!", rng)
        return decrypt_bytes(keys.private, ciphertext)

    assert benchmark(roundtrip) == b"pre-master-secret-32-bytes!!"


def test_crypto_channel_record_roundtrip(benchmark):
    sender = ChannelCipher(b"s" * 32, rng=random.Random(1))
    receiver = ChannelCipher(b"s" * 32, rng=random.Random(2))
    payload = b"x" * 512

    def roundtrip():
        return receiver.unprotect(sender.protect(payload))

    assert benchmark(roundtrip) == payload


def test_crypto_channel_record_statement_roundtrip(benchmark):
    """A 26 kB record: what sealing a statement reply costs each side."""
    sender = ChannelCipher(b"s" * 32, rng=random.Random(1))
    receiver = ChannelCipher(b"s" * 32, rng=random.Random(2))
    payload = bytes(random.Random(3).getrandbits(8) for _ in range(26 * 1024))

    def roundtrip():
        return receiver.unprotect(sender.protect(payload))

    assert benchmark(roundtrip) == payload


def _statement_reply(rows: int = 80) -> dict:
    """RequestAccountStatement's response: *rows* TRANSACTION and *rows*
    TRANSFER rows, the shape of a 5,000-transfer home's statement."""
    when = Timestamp(1041379200.0)
    transactions = [
        {"EntryID": i, "TransactionID": 1000 + i, "AccountID": "0000000000000042",
         "Type": "transfer", "Date": when.stamp14, "Amount": float(-(i % 5 + 1)), "TraceID": ""}
        for i in range(rows)
    ]
    transfers = [
        {"TransactionID": 1000 + i, "Date": when.stamp14, "DrawerAccountID": "0000000000000042",
         "Amount": float(i % 5 + 1), "RecipientAccountID": "0000000000000043",
         "ResourceUsageRecord": b"", "TraceID": ""}
        for i in range(rows)
    ]
    account = {"AccountID": "0000000000000042", "AvailableBalance": 999760.0, "Status": "open"}
    return {"kind": "response", "id": 17, "sent_at": when, "charged": Credits(0),
            "result": {"account": account, "transactions": transactions, "transfers": transfers}}


def test_codec_statement_roundtrip(benchmark):
    """canonical_dumps + canonical_loads of a ~160-row statement reply."""
    reply = _statement_reply()

    def roundtrip():
        return canonical_loads(canonical_dumps(reply))

    assert benchmark(roundtrip) == reply


def test_crypto_chain_validation(benchmark, pki):
    subject = benchmark(
        validate_chain, [pki["alice"].certificate], pki["store"], pki["clock"].now()
    )
    assert subject == pki["alice"].subject


def test_crypto_full_gss_handshake(benchmark, pki):
    seeds = iter(range(10_000, 20_000))

    def handshake():
        seed = next(seeds)
        initiator = SecurityContext(
            Role.INITIATE, pki["alice"], pki["store"],
            clock=pki["clock"], rng=random.Random(seed),
        )
        acceptor = SecurityContext(
            Role.ACCEPT, pki["bank"], pki["store"],
            clock=pki["clock"], rng=random.Random(seed + 1),
        )
        hello = initiator.step()
        challenge = acceptor.step(hello)
        exchange = initiator.step(challenge)
        acceptor.step(exchange)
        return initiator, acceptor

    initiator, acceptor = benchmark.pedantic(handshake, rounds=10, iterations=1)
    assert initiator.established and acceptor.established
