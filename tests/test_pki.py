"""Unit tests for certificates, CA, proxies, chain validation, mapfile."""

import dataclasses
import random

import pytest

from repro.crypto.rsa import RSAPublicKey, generate_keypair
from repro.errors import CertificateError, DuplicateError, NotFoundError, ValidationError
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import Certificate, DistinguishedName, make_body
from repro.pki.mapfile import GridMapfile
from repro.pki.proxy import issue_proxy, proxy_base_subject
from repro.pki.validation import CertificateStore, validate_chain
from repro.util.gbtime import Timestamp, VirtualClock


@pytest.fixture(scope="module")
def clock():
    return VirtualClock()


@pytest.fixture(scope="module")
def ca(clock, ca_keypair):
    return CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"),
        clock=clock,
        rng=random.Random(50),
        keypair=ca_keypair,
    )


@pytest.fixture(scope="module")
def alice(ca, keypair_a):
    return ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_a)


@pytest.fixture(scope="module")
def store(ca):
    return CertificateStore([ca.root_certificate])


class TestDistinguishedName:
    def test_str_rendering(self):
        dn = DistinguishedName("Grid", "alice", organizational_unit="VO-A")
        assert str(dn) == "/O=Grid/OU=VO-A/CN=alice"
        assert str(DistinguishedName("Grid", "bob")) == "/O=Grid/CN=bob"

    def test_parse_roundtrip(self):
        dn = DistinguishedName("Grid", "alice", organizational_unit="VO-A")
        assert DistinguishedName.parse(str(dn)) == dn

    def test_rejects_bad_components(self):
        with pytest.raises(ValidationError):
            DistinguishedName("", "alice")
        with pytest.raises(ValidationError):
            DistinguishedName("Grid", "a/b")
        with pytest.raises(ValidationError):
            DistinguishedName.parse("CN=alice")
        with pytest.raises(ValidationError):
            DistinguishedName.parse("/O=Grid")


class TestCertificateAuthority:
    def test_root_is_self_signed_ca(self, ca):
        root = ca.root_certificate
        assert root.body.is_ca
        assert root.subject == root.issuer
        assert root.verify_signature(root.public_key())

    def test_issued_identity_verifies_against_root(self, ca, alice):
        assert alice.certificate.verify_signature(ca.root_certificate.public_key())
        assert alice.certificate.issuer == ca.subject
        assert alice.subject == "/O=VO-A/CN=alice"

    def test_serials_increment(self, ca, keypair_b, keypair_c):
        c1 = ca.issue_identity(DistinguishedName("VO-A", "s1"), keypair=keypair_b)
        c2 = ca.issue_identity(DistinguishedName("VO-A", "s2"), keypair=keypair_c)
        assert c2.certificate.serial == c1.certificate.serial + 1

    def test_revocation(self, ca, keypair_b):
        ident = ca.issue_identity(DistinguishedName("VO-A", "revokeme"), keypair=keypair_b)
        assert not ca.is_revoked(ident.certificate)
        ca.revoke(ident.certificate)
        assert ca.is_revoked(ident.certificate)
        assert ident.certificate.serial in ca.revocation_list()

    def test_cannot_revoke_foreign_cert(self, ca, clock, keypair_b):
        other = CertificateAuthority(
            DistinguishedName("Other", "CA"), clock=clock, keypair=keypair_b
        )
        with pytest.raises(CertificateError):
            ca.revoke(other.root_certificate)


class TestCertificate:
    def test_dict_roundtrip(self, alice):
        again = Certificate.from_dict(alice.certificate.to_dict())
        assert again == alice.certificate

    def test_validity_window(self, alice, clock):
        cert = alice.certificate
        assert cert.is_valid_at(clock.now())
        before = Timestamp(cert.body.not_before - 1)
        after = Timestamp(cert.body.not_after + 1)
        assert not cert.is_valid_at(before)
        assert not cert.is_valid_at(after)
        with pytest.raises(CertificateError):
            cert.require_valid_at(after)

    def test_make_body_rejects_nonpositive_lifetime(self, keypair_a, clock):
        with pytest.raises(ValidationError):
            make_body("s", "i", 1, keypair_a.public, clock.now(), 0)


class TestChainValidation:
    def test_direct_user_chain(self, alice, store, clock):
        assert validate_chain([alice.certificate], store, clock.now()) == alice.subject

    def test_proxy_chain_maps_to_user(self, alice, store, clock, keypair_b):
        proxy = issue_proxy(alice, clock=clock, keypair=keypair_b)
        subject = validate_chain(proxy.chain(), store, clock.now())
        assert subject == alice.subject
        assert proxy.subject == alice.subject + "/CN=proxy"

    def test_oversized_signer_key_refused_before_any_exponentiation(
        self, alice, store, clock, keypair_b, monkeypatch
    ):
        """A peer's chain picks the key its proxy signature is checked
        with. An 8,192-bit modulus in the signing certificate's body is
        refused when the key is parsed, so no exponentiation runs."""
        proxy_cert, user_cert = issue_proxy(alice, clock=clock, keypair=keypair_b).chain()
        n = (1 << 8191) | random.Random(8).getrandbits(8190) | 1
        forged_body = dataclasses.replace(
            user_cert.body, public_key={"kty": "RSA", "n": f"{n:x}", "e": "10001"}
        )
        chain = [
            dataclasses.replace(proxy_cert, signature=b"\x01" * 1024),
            dataclasses.replace(user_cert, body=forged_body),
        ]
        exponentiations = []

        def encrypt_int(key, m):
            exponentiations.append(key.bits)
            raise AssertionError(f"a {key.bits}-bit exponentiation ran")

        monkeypatch.setattr(RSAPublicKey, "encrypt_int", encrypt_int)
        with pytest.raises(ValidationError, match="over 4096 bits"):
            validate_chain(chain, store, clock.now())
        assert exponentiations == []

    def test_chains_verify_from_the_root_down(
        self, ca, alice, store, clock, keypair_b, monkeypatch
    ):
        """A chain is [user] or [proxy, user], checked root first: a longer
        chain is refused before any key is used, and a forged user key is
        never used, because the root's signature over it fails first."""
        proxy_cert, user_cert = issue_proxy(alice, clock=clock, keypair=keypair_b).chain()
        n = (1 << 1023) | random.Random(9).getrandbits(1022) | 1
        forged = dataclasses.replace(
            user_cert,
            body=dataclasses.replace(
                user_cert.body, public_key={"kty": "RSA", "n": f"{n:x}", "e": "10001"}
            ),
        )
        exponentiations = []
        real_encrypt_int = RSAPublicKey.encrypt_int

        def encrypt_int(key, m):
            exponentiations.append(key.n)
            return real_encrypt_int(key, m)

        monkeypatch.setattr(RSAPublicKey, "encrypt_int", encrypt_int)
        with pytest.raises(CertificateError, match="3 certificates"):
            validate_chain([proxy_cert, user_cert, ca.root_certificate], store, clock.now())
        assert exponentiations == []

        signed_to_size = dataclasses.replace(proxy_cert, signature=b"\x01" * 128)
        with pytest.raises(CertificateError, match="not signed by trusted CA"):
            validate_chain([signed_to_size, forged], store, clock.now())
        assert exponentiations == [ca.root_certificate.public_key().n]

    def test_empty_chain_rejected(self, store, clock):
        with pytest.raises(CertificateError):
            validate_chain([], store, clock.now())

    def test_untrusted_ca_rejected(self, clock, keypair_b, keypair_c, store):
        rogue = CertificateAuthority(DistinguishedName("Rogue", "CA"), clock=clock, keypair=keypair_b)
        mallory = rogue.issue_identity(DistinguishedName("Rogue", "mallory"), keypair=keypair_c)
        with pytest.raises(CertificateError):
            validate_chain([mallory.certificate], store, clock.now())

    def test_expired_certificate_rejected(self, ca, store, clock, keypair_b):
        short = ca.issue_identity(
            DistinguishedName("VO-A", "shortlived"), lifetime_seconds=1.0, keypair=keypair_b
        )
        late = Timestamp(short.certificate.body.not_after + 10)
        with pytest.raises(CertificateError):
            validate_chain([short.certificate], store, late)

    def test_revoked_certificate_rejected(self, ca, store, clock, keypair_b):
        victim = ca.issue_identity(DistinguishedName("VO-A", "victim"), keypair=keypair_b)
        ca.revoke(victim.certificate)
        store.update_crl(ca.subject, ca.revocation_list())
        with pytest.raises(CertificateError):
            validate_chain([victim.certificate], store, clock.now())

    def test_proxy_without_user_cert_rejected(self, alice, store, clock, keypair_b):
        proxy = issue_proxy(alice, clock=clock, keypair=keypair_b)
        with pytest.raises(CertificateError):
            validate_chain([proxy.proxy_certificate], store, clock.now())

    def test_proxy_signed_by_wrong_user_rejected(self, ca, alice, store, clock, keypair_b, keypair_c):
        bob = ca.issue_identity(DistinguishedName("VO-A", "bob"), keypair=keypair_b)
        proxy = issue_proxy(alice, clock=clock, keypair=keypair_c)
        with pytest.raises(CertificateError):
            validate_chain([proxy.proxy_certificate, bob.certificate], store, clock.now())

    def test_tampered_certificate_rejected(self, alice, store, clock):
        body = alice.certificate.body
        forged_body = make_body(
            subject="/O=VO-A/CN=forger",
            issuer=body.issuer,
            serial=body.serial,
            public_key=alice.certificate.public_key(),
            not_before=Timestamp(body.not_before),
            lifetime_seconds=body.not_after - body.not_before,
        )
        forged = Certificate(body=forged_body, signature=alice.certificate.signature)
        with pytest.raises(CertificateError):
            validate_chain([forged], store, clock.now())

    def test_store_rejects_non_ca_root(self, alice):
        with pytest.raises(CertificateError):
            CertificateStore([alice.certificate])


class TestProxy:
    def test_proxy_lifetime_clamped_to_user_cert(self, ca, clock, keypair_b, keypair_c):
        short = ca.issue_identity(
            DistinguishedName("VO-A", "shortuser"), lifetime_seconds=100.0, keypair=keypair_b
        )
        proxy = issue_proxy(short, clock=clock, lifetime_seconds=10_000.0, keypair=keypair_c)
        assert proxy.proxy_certificate.body.not_after <= short.certificate.body.not_after

    def test_proxy_cannot_issue_proxy(self, alice, clock, keypair_b):
        proxy = issue_proxy(alice, clock=clock, keypair=keypair_b)
        from repro.pki.ca import Identity

        pseudo = Identity(certificate=proxy.proxy_certificate, private_key=proxy.private_key)
        with pytest.raises(CertificateError):
            issue_proxy(pseudo, clock=clock, keypair=keypair_b)

    def test_base_subject_stripping(self):
        assert proxy_base_subject("/O=A/CN=u/CN=proxy") == "/O=A/CN=u"
        assert proxy_base_subject("/O=A/CN=u/CN=proxy/CN=proxy") == "/O=A/CN=u"
        assert proxy_base_subject("/O=A/CN=u") == "/O=A/CN=u"


class TestGridMapfile:
    def test_add_lookup_remove(self):
        mapfile = GridMapfile()
        mapfile.add("/O=VO-A/CN=alice", "tmpl001")
        assert mapfile.lookup("/O=VO-A/CN=alice") == "tmpl001"
        assert "/O=VO-A/CN=alice" in mapfile
        assert mapfile.remove("/O=VO-A/CN=alice") == "tmpl001"
        assert len(mapfile) == 0

    def test_duplicate_subject_rejected(self):
        mapfile = GridMapfile()
        mapfile.add("subj", "a1")
        with pytest.raises(DuplicateError):
            mapfile.add("subj", "a2")

    def test_missing_subject(self):
        mapfile = GridMapfile()
        with pytest.raises(NotFoundError):
            mapfile.lookup("nobody")
        with pytest.raises(NotFoundError):
            mapfile.remove("nobody")
        assert mapfile.get("nobody") is None

    def test_text_roundtrip(self):
        mapfile = GridMapfile()
        mapfile.add("/O=VO-A/CN=alice", "tmpl001")
        mapfile.add("/O=VO-B/CN=bob", "tmpl002")
        text = mapfile.dumps()
        assert '"/O=VO-A/CN=alice" tmpl001' in text
        again = GridMapfile.loads(text)
        assert again.lookup("/O=VO-B/CN=bob") == "tmpl002"
        assert len(again) == 2

    def test_loads_skips_comments_and_blanks(self):
        text = '# comment\n\n"subj" acct\n'
        assert GridMapfile.loads(text).lookup("subj") == "acct"

    def test_loads_rejects_malformed(self):
        for bad in ("subj acct\n", '"unterminated acct\n', '"subj"\n'):
            with pytest.raises(ValidationError):
                GridMapfile.loads(bad)

    def test_subjects_for_account(self):
        mapfile = GridMapfile()
        mapfile.add("s1", "shared")
        mapfile.add("s2", "shared")
        mapfile.add("s3", "other")
        assert sorted(mapfile.subjects_for_account("shared")) == ["s1", "s2"]

    def test_validation_errors(self):
        mapfile = GridMapfile()
        with pytest.raises(ValidationError):
            mapfile.add("", "acct")
        with pytest.raises(ValidationError):
            mapfile.add("subj", "")
