"""Certificate chain validation.

A presented chain has one of two shapes, leaf first: ``[user]`` or
``[proxy, user]``. Only a root is a CA (:mod:`repro.pki.ca` issues no
intermediates) and a proxy cannot issue a proxy, so nothing longer can
be valid. Validation checks every certificate's validity window and
revocation, parses every key, and then verifies from the root down: the
user certificate against its trusted CA root held in the verifier's
:class:`CertificateStore`, then the proxy (which must extend the user's
subject and may not outlive it) with the user's now-verified key. No key
is used before it has been verified.

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
    """Validate *chain* (``[user]`` or ``[proxy, user]``) against *store*
    at time *when*.

    Returns the canonical subject name (user subject for proxy chains).
    Raises :class:`CertificateError` on any failure.
    """
    if not chain:
        raise CertificateError("empty certificate chain")
    if len(chain) > 2:
        raise CertificateError(f"a chain is [user] or [proxy, user], not {len(chain)} certificates")
    user, proxy = chain[-1], chain[0] if len(chain) == 2 else None
    if user.body.is_proxy:
        raise CertificateError("proxy certificate without its signing certificate")
    if proxy is not None and not proxy.body.is_proxy:
        raise CertificateError(f"{proxy.subject!r} is not a proxy of {user.subject!r}")
    for cert in chain:
        cert.require_valid_at(when)
        if store.is_revoked(cert):
            raise CertificateError(f"certificate {cert.subject!r} is revoked")
    if proxy is not None:
        if proxy.issuer != user.subject:
            raise CertificateError("proxy issuer does not match signing certificate")
        if proxy.subject != user.subject + PROXY_CN_SUFFIX:
            raise CertificateError("proxy subject must extend the user subject")
        if proxy.body.not_after > user.body.not_after:
            raise CertificateError("proxy outlives its signing certificate")
    # parse every key (its size check) before the first exponentiation
    keys = [cert.public_key() for cert in chain]
    root = store.root_for(user.issuer)
    if root is None:
        raise CertificateError(f"untrusted issuer {user.issuer!r}")
    root.require_valid_at(when)
    if not user.verify_signature(root.public_key()):
        raise CertificateError(f"certificate {user.subject!r} not signed by trusted CA")
    if proxy is not None and not proxy.verify_signature(keys[-1]):
        raise CertificateError("proxy signature invalid")
    return user.subject
