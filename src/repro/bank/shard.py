"""Horizontal sharding — consistent-hash shard groups with cross-shard 2PC.

The paper's sec 6 future work ("multiple GridBank branches per VO with
inter-branch settlement") meets ROADMAP item 1 here: accounts partition
across N shard groups — each group a PR-5 replicated primary/standby
cluster — by consistent hash of the AccountID over a versioned
:class:`ShardMap`. Three cooperating pieces:

:class:`ShardMap`
    A versioned assignment of half-open hash ranges over a 2^32 ring to
    shard ids, each shard carrying its cluster's addresses. The map is
    *installed* on every node as a durable ``shard_meta`` row, so it
    rides the WAL to standbys and survives crash recovery; the version
    doubles as the rebalance fencing epoch.

:class:`ShardNode`
    Server-side plumbing wrapped around a
    :class:`~repro.bank.cluster.ClusterNode`. It bounces misrouted
    operations with a :class:`~repro.errors.WrongShardError` stamped
    with the owning shard + installed map version, filters freshly
    minted AccountIDs so they hash into owned ranges, coordinates
    cross-shard transfers (below), answers the participant half
    (``Shard.Apply``), and serves the rebalance verbs
    (``Shard.Install`` / ``Export`` / ``Import`` / ``Evict``).

:class:`ShardRouter`
    Client-side: one failover-aware cluster client per shard group,
    dispatch by account hash, and WrongShardError hints followed by
    adopting the newer map (refetched via the unauthenticated
    ``Shard.Map`` verb) and re-routing — tolerating the brief
    ping-pong window while a split installs on the new owner.

Cross-shard transfers are a two-phase commit with the *source* shard's
primary as coordinator:

1. **prepare** — one local transaction debits the drawer and inserts a
   ``prepared`` row in ``xfer_intents`` (one WAL line: the reserved
   funds and the decision to move them are durable together, and ship
   to the coordinator's standbys like any other write).
2. **apply** — ``Shard.Apply`` on the destination shard credits the
   recipient inside its own transaction and stores the result in its
   durable reply cache under ``2pc:<IntentID>``. The intent id is the
   idempotency key, so coordinator retries — including retries by a
   *recovered* coordinator or a promoted standby after participant
   failover — replay instead of double-crediting.
3. **commit/abort** — a second local transaction marks the intent
   ``committed`` (posting the drawer's ledger entry and the client's
   cached reply in the same WAL line) or refunds the debit and marks it
   ``aborted`` when the participant refused terminally.

A coordinator crash between 1 and 3 leaves a ``prepared`` row;
:meth:`ShardNode.resolve_pending` (run after recovery/promotion, by the
background resolver, or via ``Shard.Resolve``) re-drives phase 2+3.
Client retries of an in-flight transfer resume the *same* intent — the
intent id is derived from the request's idempotency key — so funds are
reserved at most once per logical request.

Conservation across the fleet is ``sum(owned account balances) +
sum(prepared intent amounts not yet applied)`` — an intent whose
participant reply already exists has its credit in the recipient's
balance and must not be counted twice; see :func:`sharded_total_funds`.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import threading
import time
from bisect import bisect_right
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.bank.cluster import ClusterNode, cluster_client
from repro.bank.records import (
    INTENT_ABORTED,
    INTENT_COMMITTED,
    INTENT_PREPARED,
    TXN_TRANSFER,
    credits_to_db,
    db_to_credits,
)
from repro.bank.server import PRIMARY, WRITE
from repro.crypto.signature import Signed
from repro.db.query import eq
from repro.errors import (
    AccountError,
    AuthorizationError,
    InstrumentError,
    NotFoundError,
    ReproError,
    SettlementError,
    ValidationError,
    WrongShardError,
)
from repro.net.retry import RetryPolicy, sleep_for
from repro.net.rpc import RPCClient
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger
from repro.obs.trace import current_trace_id
from repro.util.money import Credits, ZERO
from repro.util.runner import Runner

__all__ = [
    "RING_SIZE",
    "account_token",
    "ShardMap",
    "ShardNode",
    "ShardRouter",
    "rebalance",
    "split_shard",
    "merge_shards",
    "sharded_total_funds",
]

_log = get_logger("bank.shard")

#: Hash-ring size. 2^32 tokens is plenty for any realistic shard count
#: while keeping tokens within exact-float (and JSON-friendly) range.
RING_SIZE = 1 << 32

_MAP_ROW_KEY = "map"

#: a router's pause after its n-th WrongShardError is n times this,
#: capped at 0.2 s: long enough to ride out a split installing
_BOUNCE_BACKOFF = 0.02

#: Errors from the participant that abort the intent (and refund the
#: drawer) rather than leaving it pending: the refusal is semantic, not
#: infrastructural, so retrying the same credit can never succeed.
_TERMINAL_APPLY_ERRORS = (
    AccountError,
    AuthorizationError,
    InstrumentError,
    NotFoundError,
    ValidationError,
)


def account_token(account_id: str) -> int:
    """Position of *account_id* on the hash ring (stable across runs)."""
    digest = hashlib.sha256(account_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class ShardMap:
    """Versioned assignment of hash ranges to shard groups.

    ``ranges`` is a sorted list of ``(lo, hi, shard_id)`` half-open
    intervals that exactly tile ``[0, RING_SIZE)``; ``shards`` maps each
    shard id to its cluster's addresses. Maps are immutable — rebalance
    operations (:meth:`split`, :meth:`merge`) return a *new* map with
    ``version + 1``, and the version is the fencing epoch: a node that
    installed version v+1 bounces ops for moved ranges with a hint
    stamped v+1, which is how routers learn to refetch.
    """

    def __init__(
        self,
        version: int,
        shards: Mapping[str, Sequence[str]],
        ranges: Sequence[tuple[int, int, str]],
    ) -> None:
        self.version = int(version)
        if self.version < 1:
            raise ValidationError("shard map version must be >= 1")
        self.shards: dict[str, tuple[str, ...]] = {
            str(sid): tuple(str(a) for a in addrs) for sid, addrs in shards.items()
        }
        if not self.shards:
            raise ValidationError("shard map needs at least one shard")
        cleaned = sorted((int(lo), int(hi), str(sid)) for lo, hi, sid in ranges)
        cursor = 0
        for lo, hi, sid in cleaned:
            if lo != cursor or hi <= lo:
                raise ValidationError("shard ranges must tile the ring without gaps")
            if sid not in self.shards:
                raise ValidationError(f"range owner {sid!r} is not a known shard")
            cursor = hi
        if cursor != RING_SIZE:
            raise ValidationError("shard ranges must cover the whole ring")
        self.ranges: tuple[tuple[int, int, str], ...] = tuple(cleaned)
        self._bounds = [lo for lo, _, _ in self.ranges]

    # -- construction ---------------------------------------------------------

    @classmethod
    def initial(cls, shards: Mapping[str, Sequence[str]], version: int = 1) -> "ShardMap":
        """Equal contiguous slices of the ring, one per shard (sorted ids)."""
        sids = sorted(shards)
        step = RING_SIZE // len(sids)
        ranges = [
            (i * step, RING_SIZE if i == len(sids) - 1 else (i + 1) * step, sid)
            for i, sid in enumerate(sids)
        ]
        return cls(version, shards, ranges)

    # -- lookups --------------------------------------------------------------

    def shard_for(self, account_id: str) -> str:
        return self.owner_of_token(account_token(account_id))

    def owner_of_token(self, token: int) -> str:
        index = bisect_right(self._bounds, token) - 1
        return self.ranges[index][2]

    def addresses_of(self, shard_id: str) -> tuple[str, ...]:
        try:
            return self.shards[shard_id]
        except KeyError:
            raise NotFoundError(f"no shard {shard_id!r} in map v{self.version}") from None

    def owned_ranges(self, shard_id: str) -> tuple[tuple[int, int], ...]:
        return tuple((lo, hi) for lo, hi, sid in self.ranges if sid == shard_id)

    # -- rebalance planning ---------------------------------------------------

    def split(
        self, shard_id: str, new_shard_id: str, addresses: Optional[Sequence[str]] = None
    ) -> "ShardMap":
        """Halve each of *shard_id*'s ranges; upper halves move to
        *new_shard_id*. Returns the successor map (version + 1).

        *new_shard_id* may already be a member with zero ranges — the
        usual live-split shape, where the new group is booted, declared
        in the map, and serving bounces before any range moves to it.
        """
        if new_shard_id == shard_id:
            raise ValidationError("cannot split a shard into itself")
        if new_shard_id in self.shards and self.owned_ranges(new_shard_id):
            raise ValidationError(f"shard {new_shard_id!r} already owns ranges")
        if new_shard_id not in self.shards and addresses is None:
            raise ValidationError(f"new shard {new_shard_id!r} needs addresses")
        if shard_id not in self.shards:
            raise NotFoundError(f"no shard {shard_id!r} to split")
        ranges: list[tuple[int, int, str]] = []
        moved = False
        for lo, hi, sid in self.ranges:
            if sid != shard_id or hi - lo < 2:
                ranges.append((lo, hi, sid))
                continue
            mid = (lo + hi) // 2
            ranges.append((lo, mid, shard_id))
            ranges.append((mid, hi, new_shard_id))
            moved = True
        if not moved:
            raise ValidationError(f"shard {shard_id!r} has no splittable range")
        shards = dict(self.shards)
        if addresses is not None:
            shards[new_shard_id] = tuple(addresses)
        return ShardMap(self.version + 1, shards, ranges)

    def merge(self, from_shard: str, into_shard: str) -> "ShardMap":
        """Reassign all of *from_shard*'s ranges to *into_shard* and drop
        *from_shard* from the map. Returns the successor map."""
        if from_shard == into_shard:
            raise ValidationError("cannot merge a shard into itself")
        self.addresses_of(from_shard)
        self.addresses_of(into_shard)
        reassigned = [
            (lo, hi, into_shard if sid == from_shard else sid) for lo, hi, sid in self.ranges
        ]
        coalesced: list[tuple[int, int, str]] = []
        for lo, hi, sid in sorted(reassigned):
            if coalesced and coalesced[-1][2] == sid and coalesced[-1][1] == lo:
                coalesced[-1] = (coalesced[-1][0], hi, sid)
            else:
                coalesced.append((lo, hi, sid))
        shards = {sid: addrs for sid, addrs in self.shards.items() if sid != from_shard}
        return ShardMap(self.version + 1, shards, coalesced)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "shards": {sid: list(addrs) for sid, addrs in self.shards.items()},
            "ranges": [[lo, hi, sid] for lo, hi, sid in self.ranges],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ShardMap":
        if not isinstance(data, Mapping):
            raise ValidationError("shard map must be a mapping")
        try:
            return cls(
                data["version"],
                data["shards"],
                [tuple(r) for r in data["ranges"]],
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed shard map: {exc}") from exc

    def to_json(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")

    @classmethod
    def from_json(cls, blob: bytes) -> "ShardMap":
        try:
            return cls.from_dict(json.loads(bytes(blob).decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ValidationError(f"malformed shard map JSON: {exc}") from exc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardMap)
            and self.version == other.version
            and self.shards == other.shards
            and self.ranges == other.ranges
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShardMap(v{self.version}, shards={sorted(self.shards)})"


class ShardNode:
    """Server-side sharding plane for one cluster node.

    Attach one per node (primary *and* standbys — a promoted standby
    must fence with the same installed map). Registers the ``Shard.*``
    verbs in the bank's op table and hooks itself into the server as
    ``bank.shard`` so its dispatch consults :meth:`guard` /
    :meth:`wants` / :meth:`coordinate`.
    """

    def __init__(
        self,
        node: ClusterNode,
        shard_id: str,
        shard_map: Optional[ShardMap] = None,
        resolve_interval: Optional[float] = None,
    ) -> None:
        self.node = node
        self.bank = node.bank
        self.shard_id = str(shard_id)
        self._map_cache: Optional[tuple[int, ShardMap]] = None
        self._peer_lock = threading.Lock()
        self._peer_pool: dict[str, list[tuple[tuple[str, ...], RPCClient]]] = {}
        self._intent_seq = itertools.count(1)
        self._bounces = obs_metrics.counter("bank.shard.bounces", shard=self.shard_id)
        self._register_operations()
        self.bank.accounts.id_filter = self._accepts_account_id
        self.bank.shard = self
        if shard_map is not None and self.bank.role == "primary":
            current = self.installed_map()
            if current is None or current.version < shard_map.version:
                self.install_map(shard_map)
        self.resolver: Optional[ShardResolver] = None
        if resolve_interval is not None:
            self.resolver = ShardResolver(self, resolve_interval)
            self.resolver.start()

    # -- map persistence ------------------------------------------------------

    def installed_map(self) -> Optional[ShardMap]:
        """The durably installed map, or None while unsharded.

        Cached per version: the row read is cheap, the JSON parse is
        not, and the version column changes exactly when the map does.
        """
        row = self.bank.db.find("shard_meta", (_MAP_ROW_KEY,))
        if row is None:
            return None
        cache = self._map_cache
        if cache is not None and cache[0] == row["Version"]:
            return cache[1]
        shard_map = ShardMap.from_json(row["Body"])
        self._map_cache = (shard_map.version, shard_map)
        return shard_map

    def install_map(self, shard_map: ShardMap) -> dict:
        """Durably install *shard_map* (primary only; version must advance).

        Installing the already-current version is an idempotent no-op so
        a rebalance driver can safely retry. The write is one WAL line,
        so standbys and crash recovery see the same fencing point.
        """
        db = self.bank.db
        current = self.installed_map()
        if current is not None:
            if shard_map.version < current.version or (
                shard_map.version == current.version and shard_map != current
            ):
                raise ValidationError(
                    f"stale shard map: v{shard_map.version} <= installed v{current.version}"
                )
            if shard_map == current:
                return {"shard": self.shard_id, "version": current.version, "changed": False}
        body = shard_map.to_json()
        with db.transaction():
            if db.find("shard_meta", (_MAP_ROW_KEY,)) is None:
                db.insert(
                    "shard_meta",
                    {"Key": _MAP_ROW_KEY, "Version": shard_map.version, "Body": body},
                )
            else:
                db.update(
                    "shard_meta",
                    (_MAP_ROW_KEY,),
                    {"Version": shard_map.version, "Body": body},
                )
        self._map_cache = (shard_map.version, shard_map)
        obs_metrics.gauge("bank.shard.map_version", shard=self.shard_id).set(shard_map.version)
        obs_trace.add_event("shard.map_installed", shard=self.shard_id, version=shard_map.version)
        _log.info(
            "shard.map_installed",
            shard=self.shard_id,
            version=shard_map.version,
            ranges=len(shard_map.owned_ranges(self.shard_id)),
        )
        return {"shard": self.shard_id, "version": shard_map.version, "changed": True}

    def rescan(self) -> None:
        """Drop caches rebuilt from replicated tables (post recover/promote)."""
        self._map_cache = None

    def close(self) -> None:
        resolver = self.resolver
        self.resolver = None
        if resolver is not None:
            resolver.stop()
        with self._peer_lock:
            pool = [client for entries in self._peer_pool.values() for _, client in entries]
            self._peer_pool.clear()
        for client in pool:
            try:
                client.close()
            except ReproError:
                pass

    # -- ownership ------------------------------------------------------------

    def owns(self, account_id: str) -> bool:
        shard_map = self.installed_map()
        return shard_map is None or shard_map.shard_for(account_id) == self.shard_id

    def _accepts_account_id(self, account_id: str) -> bool:
        shard_map = self.installed_map()
        if shard_map is None:
            return True
        if not shard_map.owned_ranges(self.shard_id):
            # a zero-range member (the live-split boot shape) can never
            # mint an id that hashes home: refuse the whole mint up front
            # instead of letting the counter churn through rejections
            raise AccountError(
                f"shard {self.shard_id} owns no hash ranges in map "
                f"v{shard_map.version}; create the account on an owning shard"
            )
        return shard_map.shard_for(account_id) == self.shard_id

    def guard(self, method: str, accounts: Iterable[str]) -> None:
        """Bounce ops touching accounts this shard does not own.

        Dispatch runs it before the role check (a misrouted client
        should learn the right *shard* first, not the wrong shard's
        primary). The hint carries the owner's addresses
        and this node's installed map version — after a split, the old
        owner keeps answering for moved ranges with exactly this bounce.
        """
        shard_map = self.installed_map()
        if shard_map is None:
            return
        for account in accounts:
            owner = shard_map.shard_for(account)
            if owner != self.shard_id:
                self._bounces.inc()
                obs_trace.add_event(
                    "shard.bounce", op=method, account=account, owner=owner
                )
                raise WrongShardError.for_shard(
                    owner,
                    shard_map.version,
                    shard_map.addresses_of(owner),
                    reason=f"{method}: account {account} belongs to shard {owner}",
                )

    # -- cross-shard coordinator ----------------------------------------------

    def wants(self, method: str, params: dict) -> bool:
        """True when *method* must run on the detached 2PC path: a direct
        transfer whose recipient hashes to another shard."""
        if method != "RequestDirectTransfer":
            return False
        shard_map = self.installed_map()
        if shard_map is None:
            return False
        to_account = params.get("to_account")
        return (
            isinstance(to_account, str)
            and bool(to_account)
            and shard_map.shard_for(to_account) != self.shard_id
        )

    def coordinate(self, subject: str, params: dict, key: str):
        """Cross-shard entry point: dispatch hands a transfer :meth:`wants`
        claimed here INSTEAD of running its single-transaction envelope,
        because the prepare has to be durable *before* the remote credit.

        The caller holds the key's in-flight lock (when there is a key),
        has already missed the reply cache and has run the row's access
        check; the ownership check below needs the account row.
        """
        bank = self.bank
        from_account = str(params["from_account"])
        bank._require_owner_or_admin(subject, from_account)
        to_account = str(params["to_account"])
        amount = bank._amount(params).require_positive("transfer amount")
        with obs_trace.span(
            "shard.2pc",
            kind="shard",
            shard=self.shard_id,
            drawer=from_account,
            recipient=to_account,
        ):
            intent = self._resumable_intent(key)
            if intent is None:
                intent = self._prepare(subject, from_account, to_account, amount, key)
            return self._complete(intent["IntentID"])

    def _intent_id(self, key: str, from_account: str, to_account: str) -> str:
        if key:
            # derived from the idempotency key: a client retry that races
            # past the resume lookup still collides on the primary key
            # instead of preparing (and debiting) twice
            seed = f"k|{key}"
        else:
            seed = f"l|{from_account}|{to_account}|{next(self._intent_seq)}|{self.bank.clock.epoch()}"
        return f"{hashlib.sha256(seed.encode('utf-8')).hexdigest()[:40]}"

    def _resumable_intent(self, key: str) -> Optional[dict]:
        if not key:
            return None
        rows = self.bank.db.select("xfer_intents", [eq("IdempotencyKey", key)])
        return rows[0] if rows else None

    def _prepare(
        self, subject: str, from_account: str, to_account: str, amount: Credits, key: str
    ) -> dict:
        bank = self.bank
        if from_account == to_account:
            raise AccountError("cannot transfer to the same account")
        intent_id = self._intent_id(key, from_account, to_account)
        with bank.locks.exclusive(from_account):
            with bank.db.transaction():
                drawer = bank.accounts.require_open(from_account)
                bank.accounts._require_covered(drawer, amount)
                bank.accounts._set_balances(
                    from_account, db_to_credits(drawer["AvailableBalance"]) - amount
                )
                row = {
                    "IntentID": intent_id,
                    "State": INTENT_PREPARED,
                    "DrawerAccountID": from_account,
                    "RecipientAccountID": to_account,
                    "Amount": credits_to_db(amount),
                    "Currency": drawer["Currency"],
                    "Subject": subject,
                    "IdempotencyKey": key,
                    "Date": bank.clock.now(),
                    "TraceID": current_trace_id(),
                }
                bank.db.insert("xfer_intents", row)
        obs_metrics.counter("bank.shard.xfer_prepared", shard=self.shard_id).inc()
        obs_trace.add_event("shard.2pc.prepared", intent=intent_id)
        _log.info(
            "shard.2pc.prepared",
            shard=self.shard_id,
            intent=intent_id,
            drawer=from_account,
            recipient=to_account,
        )
        return row

    def _complete(self, intent_id: str):
        """Drive a prepared intent to ``committed`` (or ``aborted``).

        Idempotent: callers must serialize per intent (the client path
        holds the request's key-lock stripe; the resolver takes the same
        stripe), and the state re-reads below make a lost race harmless.
        """
        bank = self.bank
        row = bank.db.find("xfer_intents", (intent_id,))
        if row is None:
            raise NotFoundError(f"no transfer intent {intent_id}")
        if row["State"] == INTENT_COMMITTED:
            return self._confirmation(row, {})
        if row["State"] == INTENT_ABORTED:
            raise AccountError(row["Detail"] or "cross-shard transfer aborted")
        try:
            applied = self._apply_remote(row)
        except _TERMINAL_APPLY_ERRORS as exc:
            self._abort(row, reason=f"{type(exc).__name__}: {exc}")
            raise
        except ReproError as exc:
            # infrastructure trouble (participant down, failover still
            # electing): funds stay reserved under the prepared intent;
            # a client retry or the resolver re-drives this same intent
            obs_metrics.counter("bank.shard.xfer_pending", shard=self.shard_id).inc()
            raise SettlementError(
                f"cross-shard transfer {intent_id} still pending "
                f"({type(exc).__name__}: {exc}); funds remain reserved — retry"
            ) from exc
        return self._commit(row, applied)

    def _commit(self, row: dict, applied: dict):
        """Phase 3: the intent flips to ``committed``, the drawer's ledger
        entry posts and the client's reply row lands, all in one WAL line
        — the same last step as any keyed op (``bank.commit_once``)."""
        bank = self.bank
        intent_id = row["IntentID"]
        from_account = row["DrawerAccountID"]
        # intents change state only under the drawer's stripe, so the
        # re-read below cannot go stale before commit_once re-enters it
        with bank.locks.exclusive(from_account):
            fresh = bank.db.find("xfer_intents", (intent_id,))
            if fresh is not None and fresh["State"] == INTENT_PREPARED:
                return bank.commit_once(
                    row["IdempotencyKey"],
                    row["Subject"],
                    "RequestDirectTransfer",
                    (from_account,),
                    lambda: self._commit_effects(row, applied),
                )
        row = fresh if fresh is not None else row
        if row["State"] == INTENT_COMMITTED:
            return self._confirmation(row, {})
        raise AccountError(row.get("Detail") or "cross-shard transfer aborted")

    def _commit_effects(self, row: dict, applied: dict) -> dict:
        bank = self.bank
        intent_id = row["IntentID"]
        from_account = row["DrawerAccountID"]
        amount = db_to_credits(row["Amount"])
        # a savepoint inside a keyed commit_once; the whole transaction
        # for a key-less intent
        with bank.db.transaction():
            txn_id = bank.accounts._txn_ids.next_int()
            when = bank.clock.now()
            bank.db.update(
                "xfer_intents",
                (intent_id,),
                {"State": INTENT_COMMITTED, "TransactionID": txn_id},
            )
            bank.accounts._post_entry(from_account, txn_id, TXN_TRANSFER, -amount, when)
            bank.db.insert(
                "transfers",
                {
                    "TransactionID": txn_id,
                    "Date": when,
                    "DrawerAccountID": from_account,
                    "Amount": credits_to_db(amount),
                    "RecipientAccountID": row["RecipientAccountID"],
                    "ResourceUsageRecord": b"",
                    "TraceID": current_trace_id(),
                },
            )
            row = dict(row)
            row["State"] = INTENT_COMMITTED
            row["TransactionID"] = txn_id
            result = self._confirmation(row, applied)
        obs_metrics.counter("bank.shard.xfer_committed", shard=self.shard_id).inc()
        obs_metrics.counter("bank.shard.cross_value", shard=self.shard_id).inc(amount.to_float())
        obs_trace.add_event("shard.2pc.committed", intent=intent_id, txn=txn_id)
        _log.info("shard.2pc.committed", shard=self.shard_id, intent=intent_id, txn=txn_id)
        return result

    def _abort(self, row: dict, reason: str) -> None:
        bank = self.bank
        intent_id = row["IntentID"]
        from_account = row["DrawerAccountID"]
        amount = db_to_credits(row["Amount"])
        with bank.locks.exclusive(from_account):
            with bank.db.transaction():
                fresh = bank.db.find("xfer_intents", (intent_id,))
                if fresh is None or fresh["State"] != INTENT_PREPARED:
                    return
                drawer = bank.accounts.get_account(from_account)
                bank.accounts._set_balances(
                    from_account, db_to_credits(drawer["AvailableBalance"]) + amount
                )
                bank.db.update(
                    "xfer_intents",
                    (intent_id,),
                    {"State": INTENT_ABORTED, "Detail": reason[:150]},
                )
        obs_metrics.counter("bank.shard.xfer_aborted", shard=self.shard_id).inc()
        obs_trace.add_event("shard.2pc.aborted", intent=intent_id, reason=reason[:80])
        _log.warning("shard.2pc.aborted", shard=self.shard_id, intent=intent_id, reason=reason)

    def _confirmation(self, row: dict, applied: dict) -> dict:
        """The signed reply for a committed intent. With an empty
        *applied* it is re-signed from the intent row alone — the client's
        reply row was evicted, or the intent never had a key — and the
        participant's transaction id is no longer known."""
        payload = {
            "confirmation": "DirectTransfer",
            "transaction_id": row["TransactionID"],
            "drawer_account": row["DrawerAccountID"],
            "recipient_account": row["RecipientAccountID"],
            "amount": db_to_credits(row["Amount"]),
            "recipient_address": "",
            "committed_at": self.bank.clock.now().epoch,
            "cross_shard": True,
            "intent_id": row["IntentID"],
            "recipient_transaction_id": int(applied.get("transaction_id", 0)),
        }
        signed = Signed.make(self.bank.identity.private_key, payload, signer=self.bank.subject)
        return {"confirmation": signed.to_dict()}

    def _apply_remote(self, row: dict) -> dict:
        shard_map = self.installed_map()
        if shard_map is None:
            raise SettlementError("shard map uninstalled mid-transfer")
        to_account = row["RecipientAccountID"]
        dest = shard_map.shard_for(to_account)
        if dest == self.shard_id:
            # a rebalance moved the recipient home mid-flight: apply the
            # credit locally through the same idempotent participant path
            return self.bank.dispatch(self._apply_op, self.bank.subject, self._apply_params(row))
        try:
            return self._call_peer(dest, shard_map.addresses_of(dest), row)
        except WrongShardError as exc:
            # the destination moved under us; chase the stamped owner once,
            # then leave the intent pending for the resolver
            owner, addresses = exc.shard_id, exc.addresses
            if not owner or not addresses:
                raise
            obs_metrics.counter("bank.shard.apply_rerouted", shard=self.shard_id).inc()
            return self._call_peer(owner, addresses, row)

    def _apply_params(self, row: dict) -> dict:
        return {
            "intent_id": row["IntentID"],
            "to_account": row["RecipientAccountID"],
            "from_account": row["DrawerAccountID"],
            "amount": row["Amount"],
            "currency": row["Currency"],
            "origin_shard": self.shard_id,
        }

    def _call_peer(self, shard_id: str, addresses: tuple[str, ...], row: dict) -> dict:
        client = self._checkout_peer(shard_id, addresses)
        try:
            result = client.call("Shard.Apply", **self._apply_params(row))
        except ReproError:
            try:
                client.close()
            except ReproError:
                pass
            raise
        self._checkin_peer(shard_id, addresses, client)
        return result

    def _checkout_peer(self, shard_id: str, addresses: tuple[str, ...]) -> RPCClient:
        with self._peer_lock:
            entries = self._peer_pool.get(shard_id, [])
            while entries:
                pooled_addresses, client = entries.pop()
                if pooled_addresses == addresses:
                    return client
                try:
                    client.close()
                except ReproError:
                    pass
        bank = self.bank
        return cluster_client(
            bank.identity,
            bank.endpoint.trust_store,
            self.node.connect,
            addresses,
            clock=bank.clock,
            retry_policy=RetryPolicy(max_attempts=6, base_delay=0.02, max_delay=0.25),
        )

    def _checkin_peer(self, shard_id: str, addresses: tuple[str, ...], client: RPCClient) -> None:
        with self._peer_lock:
            self._peer_pool.setdefault(shard_id, []).append((addresses, client))

    # -- recovery -------------------------------------------------------------

    def pending_intents(self) -> list[dict]:
        return self.bank.db.select("xfer_intents", [eq("State", INTENT_PREPARED)])

    def resolve_pending(self) -> dict:
        """Re-drive every prepared intent to a terminal state.

        The coordinator's crash-recovery half of 2PC: safe to call any
        time on a primary (no-op on standbys — their intents resolve via
        the replicated WAL when the primary resolves its own).
        """
        if self.bank.role != "primary":
            return {"resolved": 0, "aborted": 0, "pending": 0}
        resolved = aborted = pending = 0
        for row in self.pending_intents():
            key = row["IdempotencyKey"] or row["IntentID"]
            with self.bank.key_lock(key):
                try:
                    self._complete(row["IntentID"])
                    resolved += 1
                except _TERMINAL_APPLY_ERRORS:
                    aborted += 1
                except ReproError:
                    pending += 1
        if resolved or aborted:
            _log.info(
                "shard.2pc.resolved",
                shard=self.shard_id,
                resolved=resolved,
                aborted=aborted,
                pending=pending,
            )
        return {"resolved": resolved, "aborted": aborted, "pending": pending}

    # -- funds accounting -----------------------------------------------------

    def owned_funds(self) -> Credits:
        """Available+locked over accounts this shard currently owns.

        During a rebalance the exporting shard may briefly still hold
        rows for moved accounts; counting by ownership keeps the global
        sum from double-counting them.
        """
        total = ZERO
        for row in self.bank.db.table("accounts").all_rows():
            if self.owns(row["AccountID"]):
                total = (
                    total
                    + db_to_credits(row["AvailableBalance"])
                    + db_to_credits(row["LockedBalance"])
                )
        return total

    def prepared_total(self) -> Credits:
        total = ZERO
        for row in self.pending_intents():
            total = total + db_to_credits(row["Amount"])
        return total

    # -- RPC operations -------------------------------------------------------

    def _register_operations(self) -> None:
        # plumbing between peers: no account locks, no staleness bound,
        # not principal workload
        register = functools.partial(
            self.bank.register, access="peer", staleness_exempt=True, tracked=False
        )
        # routers bootstrap from the map before they hold anything here
        register("Shard.Map", self.op_shard_map, access="anyone")
        register("Shard.Status", self.op_shard_status)
        # the rebalance steps act on the primary's rows, and each is
        # idempotent by its own construction (version fence, import
        # marker, keyed rows): primary-only, no reply row
        register("Shard.Install", self.op_shard_install, kind=PRIMARY)
        register("Shard.Export", self.op_shard_export, kind=PRIMARY)
        register("Shard.Import", self.op_shard_import, kind=PRIMARY)
        register("Shard.Evict", self.op_shard_evict, kind=PRIMARY)
        register("Shard.Resolve", self.op_shard_resolve, kind=PRIMARY)
        # the participant half of the 2PC is an ordinary write whose reply
        # key is the intent: guarded on the recipient, primary-only,
        # credit and reply row in one WAL line
        self._apply_op = register(
            "Shard.Apply",
            self.op_shard_apply,
            self.bank._param_accounts("to_account"),
            kind=WRITE,
            reply_key=lambda params: f"2pc:{params['intent_id']}",
        )

    def op_shard_map(self, subject: str, params: dict) -> dict:
        """Open to anyone (like BankInfo): routers bootstrap from it."""
        shard_map = self.installed_map()
        return {
            "shard": self.shard_id,
            "map": shard_map.to_dict() if shard_map is not None else None,
        }

    def op_shard_status(self, subject: str, params: dict) -> dict:
        shard_map = self.installed_map()
        owned = 0
        if shard_map is not None:
            for row in self.bank.db.table("accounts").all_rows():
                if self.owns(row["AccountID"]):
                    owned += 1
        else:
            owned = len(self.bank.db.table("accounts").all_rows())
        return {
            "shard": self.shard_id,
            "map_version": shard_map.version if shard_map is not None else 0,
            "ranges": [list(r) for r in (shard_map.owned_ranges(self.shard_id) if shard_map else ())],
            "owned_accounts": owned,
            "prepared_intents": len(self.pending_intents()),
            "owned_funds": self.owned_funds().to_float(),
            "cluster": self.node.status(),
        }

    def op_shard_apply(self, subject: str, params: dict) -> dict:
        """Participant half of the 2PC: the credit, keyed by intent.

        Dispatch stores the reply under ``2pc:<IntentID>`` in the same WAL
        line as the credit, and it ships to this shard's standbys, so a
        coordinator retry after participant failover replays on the
        promoted standby instead of double-crediting.
        """
        bank = self.bank
        to_account = str(params["to_account"])
        amount = Credits(params["amount"]).require_positive("transfer amount")
        with bank.db.transaction():
            recipient = bank.accounts.require_open(to_account)
            currency = str(params.get("currency", recipient["Currency"]))
            if recipient["Currency"] != currency:
                raise AccountError(
                    f"currency mismatch: transfer carries {currency}, "
                    f"{to_account} holds {recipient['Currency']}"
                )
            txn_id = bank.accounts._txn_ids.next_int()
            when = bank.clock.now()
            bank.accounts._set_balances(
                to_account, db_to_credits(recipient["AvailableBalance"]) + amount
            )
            bank.accounts._post_entry(to_account, txn_id, TXN_TRANSFER, amount, when)
        obs_trace.add_event(
            "shard.2pc.applied", intent=str(params["intent_id"]), account=to_account
        )
        return {"transaction_id": txn_id, "shard": self.shard_id}

    def op_shard_install(self, subject: str, params: dict) -> dict:
        return self.install_map(ShardMap.from_dict(params["map"]))

    def op_shard_export(self, subject: str, params: dict) -> dict:
        """Everything a moved account needs at its new owner (post-fence).

        One cut, four tables:

        - ``accounts`` — rows this node holds but no longer owns;
        - ``transactions`` / ``transfers`` — the moved accounts' ledger
          history, so statements keep working after the move (transfer
          rows ride along when *either* party moved — the staying
          party's copy stays behind too);
        - ``replies`` — the full reply-cache cut. Reply keys cannot be
          attributed to accounts without per-method body knowledge, and
          stranding them breaks exactly-once: a participant reply
          (``2pc:<IntentID>``) left behind lets a still-prepared intent
          coordinated on *another* shard double-credit when re-driven at
          the new owner, and a stranded client reply re-executes a
          committed op on retry. Keys are globally unique and the cache
          is bounded (``max_entries``), so copying the whole cut is safe
          and cheap; rows for unmoved accounts are unreachable at the
          target (the guard bounces before any cache lookup) and simply
          age out.
        """
        shard_map = self.installed_map()
        if shard_map is None:
            return {
                "accounts": [],
                "transactions": [],
                "transfers": [],
                "replies": [],
                "version": 0,
            }
        db = self.bank.db
        rows = [
            dict(row)
            for row in db.table("accounts").all_rows()
            if shard_map.shard_for(row["AccountID"]) != self.shard_id
        ]
        moved = {row["AccountID"] for row in rows}
        transactions = [
            dict(row)
            for row in db.table("transactions").all_rows()
            if row["AccountID"] in moved
        ]
        transfers = [
            dict(row)
            for row in db.table("transfers").all_rows()
            if row["DrawerAccountID"] in moved or row["RecipientAccountID"] in moved
        ]
        replies = [dict(row) for row in db.table("replies").all_rows()]
        return {
            "accounts": rows,
            "transactions": transactions,
            "transfers": transfers,
            "replies": replies,
            "version": shard_map.version,
        }

    def op_shard_import(self, subject: str, params: dict) -> dict:
        """Adopt an exported cut: accounts, ledger history, reply rows.

        Idempotency is two-layered. Account and reply rows are keyed
        (existing rows win), so re-running them is harmless. Ledger rows
        are NOT naturally keyed here — ``EntryID``/``TransactionID`` are
        shard-local counters, so imported history is re-identified under
        freshly allocated ids (consistently: every ledger row sharing an
        old ``TransactionID`` shares the new one, keeping the statement
        join intact) — and a blind re-run would duplicate history. A
        ``shard_meta`` marker row (``import:v<version>``), committed in
        the same transaction as the ledger rows, makes the remap
        exactly-once across rebalance-driver retries and crash recovery.
        """
        bank = self.bank
        rows = params.get("accounts") or []
        ledger_entries = params.get("transactions") or []
        ledger_transfers = params.get("transfers") or []
        reply_rows = params.get("replies") or []
        version = int(params.get("version") or 0)
        marker_key = f"import:v{version}"
        imported = entries = transfers = replies = 0
        with bank.db.transaction():
            for row in rows:
                if not isinstance(row, dict) or "AccountID" not in row:
                    raise ValidationError("malformed account row in Shard.Import")
                if bank.db.find("accounts", (row["AccountID"],)) is None:
                    bank.db.insert("accounts", dict(row))
                    imported += 1
            remap_done = version > 0 and bank.db.find("shard_meta", (marker_key,)) is not None
            if not remap_done and (ledger_entries or ledger_transfers):
                txn_map: dict[int, int] = {}

                def remapped(old_txn: int) -> int:
                    if old_txn not in txn_map:
                        txn_map[old_txn] = bank.accounts._txn_ids.next_int()
                    return txn_map[old_txn]

                for row in ledger_transfers:
                    if not isinstance(row, dict) or "TransactionID" not in row:
                        raise ValidationError("malformed transfer row in Shard.Import")
                    adopted = dict(row)
                    adopted["TransactionID"] = remapped(row["TransactionID"])
                    bank.db.insert("transfers", adopted)
                    transfers += 1
                for row in ledger_entries:
                    if not isinstance(row, dict) or "TransactionID" not in row:
                        raise ValidationError("malformed transaction row in Shard.Import")
                    adopted = dict(row)
                    adopted["TransactionID"] = remapped(row["TransactionID"])
                    adopted["EntryID"] = bank.accounts._entry_ids.next_int()
                    bank.db.insert("transactions", adopted)
                    entries += 1
                if version > 0:
                    bank.db.insert(
                        "shard_meta", {"Key": marker_key, "Version": version, "Body": b""}
                    )
            for row in reply_rows:
                if not isinstance(row, dict) or "IdempotencyKey" not in row:
                    raise ValidationError("malformed reply row in Shard.Import")
                if bank.db.find("replies", (row["IdempotencyKey"],)) is None:
                    bank.db.insert("replies", dict(row))
                    replies += 1
        # imported ids may exceed the local counters; rescan so future
        # mints/stores cannot collide with adopted rows
        bank.accounts.rescan_ids()
        bank.replies.rescan()
        if imported or entries or transfers or replies:
            obs_metrics.counter("bank.shard.accounts_imported", shard=self.shard_id).inc(imported)
            _log.info(
                "shard.import",
                shard=self.shard_id,
                imported=imported,
                ledger_entries=entries,
                ledger_transfers=transfers,
                replies=replies,
            )
        return {
            "imported": imported,
            "transactions": entries,
            "transfers": transfers,
            "replies": replies,
        }

    def op_shard_evict(self, subject: str, params: dict) -> dict:
        """Drop rows for ranges this node no longer owns (post-import).

        Evicts the moved accounts and their ledger entries. A transfer
        row is dropped only when *neither* party is still owned here —
        the staying party's statement join needs its copy (the new owner
        received a re-identified copy of its own in the export cut).
        Reply rows stay: they cannot be attributed to accounts, are
        unreachable behind the ownership guard, and age out of the
        bounded cache on their own.
        """
        bank = self.bank
        shard_map = self.installed_map()
        if shard_map is None:
            return {"evicted": 0}

        def owned(account_id: str) -> bool:
            return shard_map.shard_for(account_id) == self.shard_id

        doomed = [
            row["AccountID"]
            for row in bank.db.table("accounts").all_rows()
            if not owned(row["AccountID"])
        ]
        doomed_entries = [
            row["EntryID"]
            for row in bank.db.table("transactions").all_rows()
            if not owned(row["AccountID"])
        ]
        doomed_transfers = [
            row["TransactionID"]
            for row in bank.db.table("transfers").all_rows()
            if not owned(row["DrawerAccountID"]) and not owned(row["RecipientAccountID"])
        ]
        with bank.db.transaction():
            for account_id in doomed:
                bank.db.delete("accounts", (account_id,))
            for entry_id in doomed_entries:
                bank.db.delete("transactions", (entry_id,))
            for txn_id in doomed_transfers:
                bank.db.delete("transfers", (txn_id,))
        if doomed:
            obs_metrics.counter("bank.shard.accounts_evicted", shard=self.shard_id).inc(len(doomed))
            _log.info(
                "shard.evict",
                shard=self.shard_id,
                evicted=len(doomed),
                ledger_entries=len(doomed_entries),
                ledger_transfers=len(doomed_transfers),
            )
        return {"evicted": len(doomed)}

    def op_shard_resolve(self, subject: str, params: dict) -> dict:
        return self.resolve_pending()


class ShardResolver:
    """Background re-driver for prepared intents (coordinator recovery).

    A :meth:`step` does work only while this node is primary and alive;
    the interval can be generous — client retries resolve the common
    case, this is the backstop for coordinators whose client never came
    back.
    """

    def __init__(self, shard: ShardNode, interval: float) -> None:
        self.shard = shard
        self.interval = max(0.01, float(interval))
        self._runner = Runner(f"shard-resolver-{shard.shard_id}", self.step, self.interval)

    def start(self) -> None:
        self._runner.start()

    def stop(self) -> None:
        self._runner.stop()

    def step(self) -> None:
        # resolve_pending is itself a no-op on a standby
        if not self.shard.bank.endpoint.crashed:
            self.shard.resolve_pending()


class ShardRouter:
    """Client-side shard fan-out: route by account hash, follow hints.

    Generalizes :func:`~repro.bank.cluster.cluster_client`: one
    failover-aware client per shard group (NotPrimaryError handled
    inside each), plus WrongShardError handled here by adopting the
    newer map — refetched via ``Shard.Map`` from the hinted owner — and
    re-dialing. During the split window the old and new owner may bounce
    a key back and forth (the new owner serves only once the map is
    installed on it); bounded retries with backoff ride that out.
    """

    def __init__(
        self,
        credential,
        trust_store,
        connect: Callable[[str], object],
        shard_map: ShardMap,
        clock=None,
        rng=None,
        retry_policy: Optional[RetryPolicy] = None,
        max_bounces: int = 8,
    ) -> None:
        self.credential = credential
        self.trust_store = trust_store
        self.connect = connect
        self.map = shard_map
        self.clock = clock
        self.rng = rng
        self.retry_policy = retry_policy
        self.max_bounces = int(max_bounces)
        self._clients: dict[str, tuple[tuple[str, ...], RPCClient]] = {}
        self._lock = threading.Lock()
        self._rr = itertools.count()
        self._bounces = obs_metrics.counter("shard.router.bounces")
        self._refreshes = obs_metrics.counter("shard.router.map_refreshes")

    # -- connections ----------------------------------------------------------

    def client_for(self, shard_id: str) -> RPCClient:
        addresses = self.map.addresses_of(shard_id)
        with self._lock:
            entry = self._clients.get(shard_id)
            if entry is not None and entry[0] == addresses:
                return entry[1]
        client = cluster_client(
            self.credential,
            self.trust_store,
            self.connect,
            addresses,
            clock=self.clock,
            rng=self.rng,
            retry_policy=self.retry_policy,
        )
        with self._lock:
            stale = self._clients.get(shard_id)
            self._clients[shard_id] = (addresses, client)
        if stale is not None and stale[1] is not client:
            try:
                stale[1].close()
            except ReproError:
                pass
        return client

    def close(self) -> None:
        with self._lock:
            clients = [client for _, client in self._clients.values()]
            self._clients.clear()
        for client in clients:
            try:
                client.close()
            except ReproError:
                pass

    # -- map adoption ---------------------------------------------------------

    def adopt(self, shard_map: ShardMap) -> bool:
        if shard_map.version <= self.map.version:
            return False
        self.map = shard_map
        self._refreshes.inc()
        return True

    def refresh_map(self, addresses: Iterable[str] = ()) -> ShardMap:
        """Refetch the map from *addresses* (or every known shard)."""
        probes: list[tuple[str, ...]] = []
        addresses = tuple(addresses)
        if addresses:
            probes.append(addresses)
        probes.extend(self.map.shards[sid] for sid in sorted(self.map.shards))
        last_error: Optional[Exception] = None
        for addrs in probes:
            try:
                client = cluster_client(
                    self.credential,
                    self.trust_store,
                    self.connect,
                    addrs,
                    clock=self.clock,
                    rng=self.rng,
                    retry_policy=self.retry_policy,
                )
                try:
                    answer = client.call("Shard.Map")
                finally:
                    client.close()
            except ReproError as exc:
                last_error = exc
                continue
            if answer.get("map"):
                self.adopt(ShardMap.from_dict(answer["map"]))
                return self.map
        if last_error is not None:
            raise SettlementError(f"shard map refresh failed: {last_error}") from last_error
        return self.map

    # -- routing --------------------------------------------------------------

    _ROUTE_PARAMS = ("from_account", "account_id", "to_account")

    def route_account(self, method: str, params: dict) -> Optional[str]:
        """The account whose hash decides the shard: the drawer for
        transfers (the coordinator is the source shard), otherwise the
        first account-ish parameter present."""
        for name in self._ROUTE_PARAMS:
            value = params.get(name)
            if isinstance(value, str) and value:
                return value
        return None

    def shard_of(self, account_id: str) -> str:
        return self.map.shard_for(account_id)

    def call(self, method: str, *, shard_id: Optional[str] = None, **params):
        account = self.route_account(method, params)
        last_exc: Optional[WrongShardError] = None
        for attempt in range(self.max_bounces):
            if shard_id is None:
                target = self.map.shard_for(account) if account else sorted(self.map.shards)[0]
            else:
                target = shard_id
            try:
                return self.client_for(target).call(method, **params)
            except WrongShardError as exc:
                last_exc = exc
                self._bounces.inc()
                shard_id = None
                hinted_version = exc.map_version
                if hinted_version > self.map.version:
                    try:
                        self.refresh_map(exc.addresses)
                    except SettlementError:
                        pass
                if attempt + 1 < self.max_bounces:
                    sleep_for(self.clock, min(_BOUNCE_BACKOFF * (attempt + 1), 0.2))
        assert last_exc is not None
        raise last_exc

    # -- conveniences ---------------------------------------------------------

    def create_account(self, **params):
        """Round-robin new accounts across shards; each shard mints ids
        hashing into its own ranges (see ``GBAccounts.id_filter``).
        Zero-range members (declared live-split targets) are skipped —
        they cannot mint an id that hashes home and would refuse."""
        sids = sorted(sid for sid in self.map.shards if self.map.owned_ranges(sid))
        target = sids[next(self._rr) % len(sids)]
        return self.call("CreateAccount", shard_id=target, **params)

    def transfer(self, from_account: str, to_account: str, amount: float, **params):
        return self.call(
            "RequestDirectTransfer",
            from_account=from_account,
            to_account=to_account,
            amount=amount,
            **params,
        )


# -- rebalance orchestration ----------------------------------------------------


def rebalance(
    clients: Mapping[str, RPCClient],
    new_map: ShardMap,
    source: str,
    target: str,
) -> ShardMap:
    """Drive an epoch-fenced range move from *source* to *target*.

    Order matters and is the whole point:

    1. install on *source* — the old owner starts bouncing moved ranges
       with hints stamped ``new_map.version`` (the fence);
    2. resolve *source*'s in-flight cross-shard intents — their debits
       must land in rows that are about to move;
    3. export the moved account rows — plus their ledger history and
       the reply-cache cut — from *source*;
    4. import the cut into *target* (still fenced: *target*'s old map
       bounces them right back until step 5);
    5. install on *target* — it starts serving the moved ranges;
    6. evict the moved rows from *source*;
    7. broadcast the map to every other shard so their coordinators
       route 2PC credits at the new owner directly, then sweep
       ``Shard.Resolve`` fleet-wide (best-effort): a *prepared* intent
       coordinated on another shard whose recipient just moved re-drives
       at the new owner now instead of waiting for its resolver tick —
       the imported ``2pc:<IntentID>`` reply rows make that replay
       idempotent even when the credit already landed on *source*
       before the fence.

    *clients* must hold an authorized (peer/admin) client per shard id
    in ``new_map`` — including *target* — plus *source* when a merge
    removes it from the map.
    """
    with obs_trace.span(
        "shard.rebalance", kind="shard", source=source, target=target, version=new_map.version
    ):
        clients[source].call("Shard.Install", map=new_map.to_dict())
        for _ in range(10):
            verdict = clients[source].call("Shard.Resolve")
            if not verdict["pending"]:
                break
            time.sleep(0.05)
        else:
            raise SettlementError(
                f"cannot rebalance: shard {source} still has unresolved transfer intents"
            )
        exported = clients[source].call("Shard.Export")
        moved = exported["accounts"]
        if moved:
            clients[target].call(
                "Shard.Import",
                accounts=moved,
                transactions=exported.get("transactions") or [],
                transfers=exported.get("transfers") or [],
                replies=exported.get("replies") or [],
                version=exported.get("version") or new_map.version,
            )
        clients[target].call("Shard.Install", map=new_map.to_dict())
        clients[source].call("Shard.Evict")
        for sid in new_map.shards:
            if sid in (source, target):
                continue
            clients[sid].call("Shard.Install", map=new_map.to_dict())
        # best-effort: re-drive every shard's prepared intents under the
        # new map so credits aimed at moved ranges land at the new owner
        # now rather than on the next resolver tick
        for sid in new_map.shards:
            try:
                clients[sid].call("Shard.Resolve")
            except ReproError:
                pass
        obs_metrics.counter("shard.rebalance.moves").inc()
        obs_metrics.counter("shard.rebalance.accounts_moved").inc(len(moved))
        _log.info(
            "shard.rebalanced",
            source=source,
            target=target,
            version=new_map.version,
            moved=len(moved),
        )
    return new_map


def split_shard(
    clients: Mapping[str, RPCClient],
    shard_map: ShardMap,
    shard_id: str,
    new_shard_id: str,
    addresses: Optional[Sequence[str]] = None,
) -> ShardMap:
    """Split *shard_id* live: upper halves of its ranges move to
    *new_shard_id* (whose cluster must already be serving at *addresses*
    with an authorized client in *clients*)."""
    new_map = shard_map.split(shard_id, new_shard_id, addresses)
    return rebalance(clients, new_map, source=shard_id, target=new_shard_id)


def merge_shards(
    clients: Mapping[str, RPCClient],
    shard_map: ShardMap,
    from_shard: str,
    into_shard: str,
) -> ShardMap:
    """Merge *from_shard*'s ranges into *into_shard* and retire it."""
    new_map = shard_map.merge(from_shard, into_shard)
    return rebalance(clients, new_map, source=from_shard, target=into_shard)


def sharded_total_funds(shards: Iterable[ShardNode]) -> Credits:
    """Global conservation probe: owned balances plus in-flight reserves.

    Pass each shard group's *primary* ShardNode. Funds inside a prepared
    intent have left the drawer's row but not yet reached the recipient's
    — they are still the bank's liability, so they count. EXCEPT when the
    participant's reply row (``2pc:<IntentID>``) already exists on one of
    the given shards: then the credit has landed in the recipient's
    balance while the coordinator has not yet flipped the row to
    ``committed``, and counting the reserve again would report a
    transient surplus (a concurrent probe mid-2PC would flake).
    """
    shard_list = list(shards)
    total = ZERO
    for shard in shard_list:
        total = total + shard.owned_funds()
        for row in shard.pending_intents():
            reply_key = f"2pc:{row['IntentID']}"
            applied = any(
                peer.bank.db.find("replies", (reply_key,)) is not None
                for peer in shard_list
            )
            if not applied:
                total = total + db_to_credits(row["Amount"])
    return total
