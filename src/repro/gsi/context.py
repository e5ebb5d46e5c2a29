"""GSS-style security context establishment.

A three-token mutual-authentication handshake modelled on TLS-with-client-
certificates, built from our own primitives:

1. ``hello``      (initiator -> acceptor): initiator chain + nonce_i.
2. ``challenge``  (acceptor -> initiator): acceptor chain + nonce_a +
   acceptor's signature over both nonces (proves key possession).
3. ``exchange``   (initiator -> acceptor): pre-master secret encrypted to
   the acceptor's public key + initiator's signature over the transcript
   (proves the initiator's key possession — client authentication).

Both sides validate the peer chain against their trust store (proxy chains
resolve to the user's canonical subject) and derive directional channel
ciphers from the pre-master secret and both nonces. Tokens are plain dicts
so any transport can carry them.

The context is driven by :meth:`step`: feed it the peer's token, send what
it returns, until :attr:`established`.
"""

from __future__ import annotations

import enum
import random
from typing import Any, Optional

from repro.crypto.cipher import ChannelCipher
from repro.crypto.hashes import sha256
from repro.crypto.rsa import decrypt_bytes, encrypt_bytes
from repro.crypto.signature import sign, verify
from repro.errors import AuthenticationError, ProtocolError, ValidationError
from repro.pki.ca import Identity
from repro.pki.certificate import Certificate
from repro.pki.proxy import ProxyCredential
from repro.pki.validation import CertificateStore, validate_chain
from repro.util.gbtime import Clock, SystemClock

__all__ = ["Role", "SecurityContext"]

_NONCE_LEN = 32


def _field(token: dict, name: str, kind: type) -> Any:
    """*token*'s *name* field, or ProtocolError if absent or not a *kind*."""
    value = token.get(name)
    if not isinstance(value, kind):
        raise ProtocolError(f"{token.get('type')} token has no {kind.__name__} {name!r}")
    return value


class Role(enum.Enum):
    INITIATE = "initiate"
    ACCEPT = "accept"


class _Credential:
    """Uniform view over Identity and ProxyCredential."""

    def __init__(self, cred) -> None:
        if isinstance(cred, ProxyCredential):
            self.chain = [c.to_dict() for c in cred.chain()]
            self.private_key = cred.private_key
            self.leaf = cred.proxy_certificate
        elif isinstance(cred, Identity):
            self.chain = [cred.certificate.to_dict()]
            self.private_key = cred.private_key
            self.leaf = cred.certificate
        else:
            raise ValidationError("credential must be Identity or ProxyCredential")


class SecurityContext:
    """One endpoint of a mutual-authentication handshake.

    After establishment, :meth:`wrap`/:meth:`unwrap` protect application
    payloads and :attr:`peer_subject` carries the authenticated canonical
    subject of the other side.
    """

    def __init__(
        self,
        role: Role,
        credential,
        trust_store: CertificateStore,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.role = role
        self._cred = _Credential(credential)
        self._store = trust_store
        self._clock = clock if clock is not None else SystemClock()
        self._rng = rng if rng is not None else random.Random()
        self.peer_subject: Optional[str] = None
        self.established = False
        self._nonce_i: Optional[bytes] = None
        self._nonce_a: Optional[bytes] = None
        self._peer_leaf: Optional[Certificate] = None
        #: what a resumption must re-check about the validated peer chain
        #: without RSA: ``(earliest not_after, ((issuer, serial), ...))``
        self.peer_chain: Optional[tuple[float, tuple]] = None
        self._send: Optional[ChannelCipher] = None
        self._recv: Optional[ChannelCipher] = None
        self._master: Optional[bytes] = None
        self._state = "new"

    # -- handshake ---------------------------------------------------------

    def step(self, token: Optional[dict] = None) -> Optional[dict]:
        """Advance the handshake.

        Initiator: ``step()`` -> hello; ``step(challenge)`` -> exchange.
        Acceptor: ``step(hello)`` -> challenge; ``step(exchange)`` -> None.
        """
        if self.established:
            raise ProtocolError("context already established")
        if token is not None and not isinstance(token, dict):
            raise ProtocolError("handshake token must be a dict")
        if self.role is Role.INITIATE:
            if self._state == "new":
                if token is not None:
                    raise ProtocolError("initiator's first step takes no token")
                return self._make_hello()
            if self._state == "hello-sent":
                if token is None:
                    raise ProtocolError("initiator expected a challenge token")
                return self._process_challenge(token)
        else:
            if token is None:
                raise ProtocolError("acceptor always consumes a token")
            if self._state == "new":
                return self._process_hello(token)
            if self._state == "challenge-sent":
                return self._process_exchange(token)
        raise ProtocolError(f"unexpected step in state {self._state!r}")

    def _nonce(self) -> bytes:
        return self._rng.getrandbits(8 * _NONCE_LEN).to_bytes(_NONCE_LEN, "big")

    def _make_hello(self) -> dict:
        self._nonce_i = self._nonce()
        self._state = "hello-sent"
        return {"type": "hello", "chain": self._cred.chain, "nonce": self._nonce_i}

    def _validate_peer_chain(self, chain_dicts: list) -> tuple[str, Certificate]:
        try:
            chain = [Certificate.from_dict(d) for d in chain_dicts]
        except (ValidationError, TypeError) as exc:
            raise AuthenticationError(f"malformed peer chain: {exc}") from exc
        try:
            subject = validate_chain(chain, self._store, self._clock.now())
        except Exception as exc:
            raise AuthenticationError(f"peer chain rejected: {exc}") from exc
        anchors = filter(None, (self._store.root_for(c.issuer) for c in chain))
        self.peer_chain = (
            min(c.body.not_after for c in (*chain, *anchors)),
            tuple((c.issuer, c.serial) for c in chain),
        )
        return subject, chain[0]

    def _process_hello(self, token: dict) -> dict:
        if token.get("type") != "hello":
            raise ProtocolError("expected hello token")
        self.peer_subject, self._peer_leaf = self._validate_peer_chain(_field(token, "chain", list))
        self._nonce_i = _field(token, "nonce", bytes)
        if len(self._nonce_i) != _NONCE_LEN:
            raise AuthenticationError("bad initiator nonce")
        self._nonce_a = self._nonce()
        proof = sign(self._cred.private_key, {"handshake": "challenge", "ni": self._nonce_i, "na": self._nonce_a})
        self._state = "challenge-sent"
        return {
            "type": "challenge",
            "chain": self._cred.chain,
            "nonce": self._nonce_a,
            "proof": proof,
        }

    def _process_challenge(self, token: dict) -> dict:
        if token.get("type") != "challenge":
            raise ProtocolError("expected challenge token")
        self.peer_subject, self._peer_leaf = self._validate_peer_chain(_field(token, "chain", list))
        self._nonce_a = _field(token, "nonce", bytes)
        if len(self._nonce_a) != _NONCE_LEN:
            raise AuthenticationError("bad acceptor nonce")
        challenge_body = {"handshake": "challenge", "ni": self._nonce_i, "na": self._nonce_a}
        if not verify(self._peer_leaf.public_key(), challenge_body, _field(token, "proof", bytes)):
            raise AuthenticationError("acceptor failed proof of key possession")
        pre_master = self._nonce()
        encrypted = encrypt_bytes(self._peer_leaf.public_key(), pre_master, self._rng)
        proof = sign(
            self._cred.private_key,
            {"handshake": "exchange", "ni": self._nonce_i, "na": self._nonce_a, "epk": sha256(encrypted)},
        )
        self._derive(pre_master)
        self._state = "established"
        self.established = True
        return {"type": "exchange", "encrypted_pms": encrypted, "proof": proof}

    def _process_exchange(self, token: dict) -> None:
        if token.get("type") != "exchange":
            raise ProtocolError("expected exchange token")
        encrypted = _field(token, "encrypted_pms", bytes)
        assert self._peer_leaf is not None
        exchange_body = {
            "handshake": "exchange",
            "ni": self._nonce_i,
            "na": self._nonce_a,
            "epk": sha256(encrypted),
        }
        if not verify(self._peer_leaf.public_key(), exchange_body, _field(token, "proof", bytes)):
            raise AuthenticationError("initiator failed proof of key possession")
        try:
            pre_master = decrypt_bytes(self._cred.private_key, encrypted)
        except ValidationError as exc:
            raise AuthenticationError(f"key exchange failed: {exc}") from exc
        self._derive(pre_master)
        self._state = "established"
        self.established = True
        return None

    def _derive(self, pre_master: bytes) -> None:
        assert self._nonce_i is not None and self._nonce_a is not None
        master = sha256(pre_master + self._nonce_i + self._nonce_a)
        self._install_keys(master)

    def _install_keys(self, master: bytes) -> None:
        self._master = master
        c2s = sha256(master + b"c2s")
        s2c = sha256(master + b"s2c")
        if self.role is Role.INITIATE:
            self._send = ChannelCipher(c2s, rng=self._rng)
            self._recv = ChannelCipher(s2c, rng=self._rng)
        else:
            self._send = ChannelCipher(s2c, rng=self._rng)
            self._recv = ChannelCipher(c2s, rng=self._rng)

    # -- session resumption ---------------------------------------------------

    @property
    def local_fingerprint(self) -> bytes:
        """Identifies this side's leaf certificate (its issuer's signature
        over it): a renewed proxy is a different principal to a cache."""
        return self._cred.leaf.signature

    @property
    def master_secret(self) -> bytes:
        """The established session's master secret (resumption material)."""
        if not self.established or self._master is None:
            raise ProtocolError("context not established")
        return self._master

    def resume(self, master_secret: bytes, nonce_i: bytes, nonce_a: bytes, peer_subject: str) -> None:
        """Establish this context from a prior session's master secret.

        Both sides mix the stored secret with a fresh nonce pair so each
        resumed session gets its own channel keys (no cross-session
        replay), skipping the certificate-chain validation and RSA key
        exchange of the full handshake. The caller is responsible for
        having authenticated the peer via the resumption exchange's MACs
        (see :class:`repro.net.rpc.SessionCache` and the
        ``gsi_resume`` message) — possession of the master secret is the
        proof of identity here, exactly as in TLS session tickets — and
        for having re-checked :attr:`peer_chain` of the session that
        minted the secret against today's clock and revocation lists.
        """
        if self.established or self._state != "new":
            raise ProtocolError("cannot resume a used context")
        if len(nonce_i) != _NONCE_LEN or len(nonce_a) != _NONCE_LEN:
            raise ProtocolError("bad resumption nonces")
        self._nonce_i, self._nonce_a = nonce_i, nonce_a
        self.peer_subject = peer_subject
        self._install_keys(sha256(master_secret + nonce_i + nonce_a))
        self._state = "established"
        self.established = True

    # -- record protection ---------------------------------------------------

    def wrap(self, plaintext: bytes) -> bytes:
        """Protect an application payload for the peer."""
        if not self.established or self._send is None:
            raise ProtocolError("context not established")
        return self._send.protect(plaintext)

    def unwrap(self, record: bytes) -> bytes:
        """Verify and decrypt a payload from the peer."""
        if not self.established or self._recv is None:
            raise ProtocolError("context not established")
        return self._recv.unprotect(record)
