"""Certificate chain validation.

Validation walks a presented chain leaf-first, checking at every hop:
signature by the next certificate's key, validity window, revocation, and
proxy rules (a proxy must be issued by the certificate it extends and may
not outlive it). The chain must terminate at a trusted CA root held in the
verifier's :class:`CertificateStore`.

Returns the *canonical subject* — for proxy chains this is the user
certificate's subject, so accounting always records the real principal.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.pki.certificate import Certificate
from repro.pki.proxy import PROXY_CN_SUFFIX
from repro.errors import CertificateError
from repro.util.gbtime import Timestamp

__all__ = ["CertificateStore", "validate_chain"]


class CertificateStore:
    """Trust anchors plus an optional revocation view."""

    def __init__(self, roots: Iterable[Certificate] = ()) -> None:
        self._roots: dict[str, Certificate] = {}
        self._revoked: dict[str, set[int]] = {}
        for root in roots:
            self.add_root(root)

    def add_root(self, root: Certificate) -> None:
        if not root.body.is_ca:
            raise CertificateError("trust anchor must be a CA certificate")
        if not root.verify_signature(root.public_key()):
            raise CertificateError("trust anchor is not properly self-signed")
        self._roots[root.subject] = root

    def root_for(self, issuer: str) -> Optional[Certificate]:
        return self._roots.get(issuer)

    def update_crl(self, ca_subject: str, revoked_serials: Iterable[int]) -> None:
        """Install a CA's revocation list snapshot."""
        self._revoked[ca_subject] = set(revoked_serials)

    def is_revoked(self, certificate: Certificate) -> bool:
        return self.revokes(certificate.issuer, certificate.serial)

    def revokes(self, issuer: str, serial: int) -> bool:
        """Is *serial* on *issuer*'s installed revocation list?"""
        return serial in self._revoked.get(issuer, ())

    def roots(self) -> list[Certificate]:
        return list(self._roots.values())


def validate_chain(
    chain: list[Certificate],
    store: CertificateStore,
    when: Timestamp,
) -> str:
    """Validate *chain* (leaf first) against *store* at time *when*.

    Returns the canonical subject name (user subject for proxy chains).
    Raises :class:`CertificateError` on any failure.
    """
    if not chain:
        raise CertificateError("empty certificate chain")

    canonical_subject: Optional[str] = None
    for position, cert in enumerate(chain):
        cert.require_valid_at(when)
        if store.is_revoked(cert):
            raise CertificateError(f"certificate {cert.subject!r} is revoked")

        if cert.body.is_proxy:
            if position + 1 >= len(chain):
                raise CertificateError("proxy certificate without its signing certificate")
            signer = chain[position + 1]
            if cert.issuer != signer.subject:
                raise CertificateError("proxy issuer does not match signing certificate")
            if cert.subject != signer.subject + PROXY_CN_SUFFIX:
                raise CertificateError("proxy subject must extend the user subject")
            if cert.body.not_after > signer.body.not_after:
                raise CertificateError("proxy outlives its signing certificate")
            if not cert.verify_signature(signer.public_key()):
                raise CertificateError("proxy signature invalid")
            continue

        # First non-proxy certificate is the canonical principal.
        if canonical_subject is None:
            canonical_subject = cert.subject

        root = store.root_for(cert.issuer)
        if root is not None:
            root.require_valid_at(when)
            if not cert.verify_signature(root.public_key()):
                raise CertificateError(f"certificate {cert.subject!r} not signed by trusted CA")
            return canonical_subject

        # Otherwise the next element must be an intermediate/issuer cert.
        if position + 1 >= len(chain):
            raise CertificateError(f"untrusted issuer {cert.issuer!r}")
        signer = chain[position + 1]
        if signer.subject != cert.issuer or not signer.body.is_ca:
            raise CertificateError(f"broken chain at {cert.subject!r}")
        if not cert.verify_signature(signer.public_key()):
            raise CertificateError(f"signature on {cert.subject!r} invalid")

    raise CertificateError("chain does not terminate at a trusted root")
