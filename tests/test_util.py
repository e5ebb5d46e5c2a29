"""Unit + property tests for money, time, ids and canonical serialization."""

import hashlib
import json
import random
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.util.gbtime import SystemClock, Timestamp, VirtualClock
from repro.util.ids import IdGenerator, random_token
from repro.util.money import Credits, MICRO_PER_CREDIT, ZERO
from repro.util.serialize import canonical_dumps, canonical_loads, to_bytes


class TestCredits:
    def test_construct_from_int_float_credits(self):
        assert Credits(2).micro == 2 * MICRO_PER_CREDIT
        assert Credits(2.5).micro == 2_500_000
        assert Credits(Credits(3)).micro == 3 * MICRO_PER_CREDIT

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            Credits(float("nan"))
        with pytest.raises(ValidationError):
            Credits(float("inf"))
        with pytest.raises(ValidationError):
            Credits(True)
        with pytest.raises(ValidationError):
            Credits("5")  # type: ignore[arg-type]
        with pytest.raises(ValidationError):
            Credits.from_micro(1.5)  # type: ignore[arg-type]

    def test_arithmetic(self):
        assert Credits(1) + Credits(2) == Credits(3)
        assert Credits(5) - Credits(2) == Credits(3)
        assert -Credits(4) == Credits(-4)
        assert abs(Credits(-4)) == Credits(4)
        assert Credits(2) * 3 == Credits(6)
        assert 3 * Credits(2) == Credits(6)
        assert Credits(5) / 2 == Credits(2.5)

    def test_scalar_multiplication_rounds_to_micro(self):
        # 1/3 of one G$ is 333333.33.. micro -> rounds to 333333
        assert (Credits(1) * (1 / 3)).micro == 333333

    def test_ordering_and_bool(self):
        assert Credits(1) < Credits(2) <= Credits(2)
        assert Credits(3) > Credits(2) >= Credits(2)
        assert not ZERO
        assert Credits(0.000001)

    def test_comparison_with_numbers(self):
        assert Credits(2) == 2
        assert Credits(2.5) == 2.5
        assert Credits(2) >= 1
        assert Credits(2) != 3

    def test_str_and_repr(self):
        assert str(Credits(5)) == "G$5"
        assert str(Credits(-1.25)) == "-G$1.25"
        assert "Credits" in repr(Credits(1))

    def test_require_positive(self):
        assert Credits(1).require_positive() == Credits(1)
        with pytest.raises(ValidationError):
            ZERO.require_positive()
        with pytest.raises(ValidationError):
            Credits(-1).require_positive("fee")

    def test_float_roundtrip(self):
        for value in (0.0, 1.5, 123456.789012, -0.000001):
            assert Credits(Credits(value).to_float()) == Credits(value)

    @given(st.integers(min_value=-10**15, max_value=10**15), st.integers(min_value=-10**15, max_value=10**15))
    def test_addition_exact(self, a, b):
        assert (Credits.from_micro(a) + Credits.from_micro(b)).micro == a + b

    @given(st.lists(st.integers(min_value=-10**12, max_value=10**12), max_size=30))
    def test_sum_order_independent(self, micros):
        amounts = [Credits.from_micro(m) for m in micros]
        total1 = sum(amounts, ZERO)
        total2 = sum(reversed(amounts), ZERO)
        assert total1 == total2


class TestTimestamp:
    def test_stamp14_format(self):
        ts = Timestamp.from_stamp14("20030101000000")
        assert ts.stamp14 == "20030101000000"
        assert ts.epoch == VirtualClock.DEFAULT_START

    def test_parse_rejects_malformed(self):
        for bad in ("", "2003", "2003010100000x", "200301010000000"):
            with pytest.raises(ValidationError):
                Timestamp.from_stamp14(bad)

    def test_ordering_and_arithmetic(self):
        t0 = Timestamp(100.0)
        t1 = t0 + 50
        assert t1 > t0
        assert t1 - t0 == 50.0
        assert (t1 - 25).epoch == 125.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Timestamp(float("nan"))


class TestClocks:
    def test_virtual_clock_advances(self):
        clock = VirtualClock()
        t0 = clock.now()
        clock.advance(3600)
        assert clock.now() - t0 == 3600.0

    def test_virtual_clock_never_backwards(self):
        clock = VirtualClock()
        with pytest.raises(ValidationError):
            clock.advance(-1)
        with pytest.raises(ValidationError):
            clock.set_epoch(0)

    def test_system_clock_monotonic_enough(self):
        clock = SystemClock()
        assert clock.now().epoch <= clock.now().epoch


class TestIds:
    def test_generator_sequence(self):
        gen = IdGenerator(prefix="txn")
        assert gen.next_str() == "txn-000001"
        assert gen.next_int() == 2
        assert gen.peek() == 3

    def test_random_token_seeded(self):
        assert random_token(random.Random(5)) == random_token(random.Random(5))
        assert len(random_token(random.Random(5), nbytes=8)) == 16


class TestCanonicalSerialize:
    def test_key_order_independent(self):
        assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})

    def test_roundtrip_extended_types(self):
        value = {
            "amount": Credits(12.5),
            "when": Timestamp(1041379200.0),
            "blob": b"\x00\xff",
            "plain": [1, "two", 3.5, None, True],
        }
        again = canonical_loads(canonical_dumps(value))
        assert again == value
        assert isinstance(again["amount"], Credits)
        assert isinstance(again["when"], Timestamp)
        assert isinstance(again["blob"], bytes)

    def test_rejects_unserializable(self):
        with pytest.raises(ValidationError):
            canonical_dumps({"x": object()})
        with pytest.raises(ValidationError):
            canonical_dumps({1: "non-string key"})  # type: ignore[dict-item]
        with pytest.raises(ValidationError):
            canonical_dumps(float("inf"))

    def test_rejects_malformed_bytes(self):
        with pytest.raises(ValidationError):
            canonical_loads(b"\xff\xfe not json")

    def test_to_bytes_views(self):
        assert to_bytes(b"raw") == b"raw"
        assert to_bytes("text") == b"text"
        assert to_bytes({"a": 1}) == canonical_dumps({"a": 1})

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers(min_value=-10**9, max_value=10**9) | st.text(max_size=20),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=8), children, max_size=4),
            max_leaves=20,
        )
    )
    @settings(max_examples=100)
    def test_roundtrip_arbitrary_json(self, value):
        assert canonical_loads(canonical_dumps(value)) == value


# -- the recursive codec canonical_dumps/canonical_loads replaced, kept as the
# oracle: the C-walked codec must write the same bytes and read the same values


def _reference_encode(value: Any) -> Any:
    if isinstance(value, bytes):
        return ["!b", value.hex()]
    if isinstance(value, Credits):
        return ["!c", value.micro]
    if isinstance(value, Timestamp):
        return ["!t", value.epoch]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValidationError("canonical dict keys must be strings")
            out[key] = _reference_encode(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_reference_encode(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
            raise ValidationError("non-finite float is not canonically serializable")
        return value
    raise ValidationError(f"type {type(value).__name__} is not canonically serializable")


def _reference_decode(value: Any) -> Any:
    if isinstance(value, list):
        if len(value) == 2 and value[0] == "!b" and isinstance(value[1], str):
            return bytes.fromhex(value[1])
        if len(value) == 2 and value[0] == "!c" and isinstance(value[1], int):
            return Credits.from_micro(value[1])
        if len(value) == 2 and value[0] == "!t" and isinstance(value[1], (int, float)):
            return Timestamp(value[1])
        return [_reference_decode(item) for item in value]
    if isinstance(value, dict):
        return {key: _reference_decode(item) for key, item in value.items()}
    return value


def _reference_dumps(value: Any) -> bytes:
    return json.dumps(
        _reference_encode(value), sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def _reference_loads(data: bytes) -> Any:
    try:
        return _reference_decode(json.loads(data.decode("ascii")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed canonical payload: {exc}") from exc


_TAG_LOOKALIKES = st.sampled_from([
    ["!c", 5], ["!c", True], ["!c", 1.5], ["!x", 1], ["!b", "00ff"], ["!b", "zz"], ["!b", 7],
    ["!t", True], ["!t", 2.5], ["!t", "now"], ("!c", 3), ["!c", 5, 6], [["!b", ""], "!t"],
])
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**18, max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e-7, 1e16, 0.1, 5e-324])
    | st.text(max_size=12)
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2603\U0001f600", "\u2028", "</script>"])
    | st.binary(max_size=12)
    | st.integers().map(Credits.from_micro)
    | st.floats(min_value=-1e12, max_value=1e12).map(Timestamp)
    | _TAG_LOOKALIKES
)
#: everything the codec must refuse, wherever it sits in a value
_REFUSED = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), {1: "x"}, {True: "x"}, {None: "x"},
    {Credits(1): "x"}, {2.5: "x"}, {"ok": 1, 3: "x"}, set(), frozenset(), object(), bytearray(b"x"),
])


def _values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=25,
    )


def _assert_same_value(got: Any, expected: Any) -> None:
    # == alone would let 1 / 1.0 / True and 0.0 / -0.0 stand for each other
    assert got == expected
    assert _reference_dumps(got) == _reference_dumps(expected)


CONFIRMATION = {
    "confirmation": "DirectTransfer",
    "transaction_id": 4711,
    "drawer_account": "0000000000000042",
    "recipient_account": "0000000000000043",
    "amount": Credits(12.5),
    "recipient_address": "gsp.vo-b.example:7841",
    "committed_at": 1041379200.25,
}


def statement_reply() -> dict:
    """A RequestAccountStatement response envelope: 80 TRANSACTION rows and
    80 TRANSFER rows, about the size of a 5,000-transfer home's statement."""
    transactions, transfers = [], []
    for i in range(80):
        txn = 1000 + i
        date = f"200301{1 + i // 24:02d}{i % 24:02d}0000"
        transactions.append({
            "EntryID": 2 * i + 1, "TransactionID": txn, "AccountID": "0000000000000042",
            "Type": "transfer", "Date": date, "Amount": float(-(i % 5 + 1)), "TraceID": "",
        })
        transfers.append({
            "TransactionID": txn, "Date": date, "DrawerAccountID": "0000000000000042",
            "Amount": float(i % 5 + 1), "RecipientAccountID": "0000000000000043",
            "ResourceUsageRecord": b"" if i % 3 else bytes(range(i % 7)), "TraceID": f"{i:032x}",
        })
    account = {
        "AccountID": "0000000000000042", "CertificateName": "/O=VO-Bench/CN=consumer",
        "OrganizationName": "VO-Bench", "AvailableBalance": 999760.0, "LockedBalance": 0.0,
        "Currency": "GridDollar", "CreditLimit": 0.0, "Status": "open",
    }
    return {"kind": "response", "id": 17,
            "result": {"account": account, "transactions": transactions, "transfers": transfers}}


class TestCanonicalCodecOracle:
    @given(_values(_LEAVES))
    @settings(max_examples=400, deadline=None)
    def test_same_bytes_and_values_as_reference(self, value):
        data = canonical_dumps(value)
        assert data == _reference_dumps(value)
        try:
            expected = _reference_loads(data)
        except ValueError:  # ValidationError, or a bad hex body the reference let escape bare
            with pytest.raises(ValidationError):
                canonical_loads(data)
        else:
            _assert_same_value(canonical_loads(data), expected)

    @given(_values(_LEAVES | _REFUSED))
    @settings(max_examples=300, deadline=None)
    def test_refuses_what_reference_refuses(self, value):
        try:
            expected = _reference_dumps(value)
        except ValidationError:
            with pytest.raises(ValidationError):
                canonical_dumps(value)
        else:
            assert canonical_dumps(value) == expected

    @pytest.mark.parametrize("key", [1, True, None, Credits(1), 2.5, (1, 2)])
    def test_non_str_key_refused_at_any_depth(self, key):
        for value in ({key: 1}, {"a": [{"b": {key: 1}}]}, [({"x": 1}, {key: "v"})], {"a": 1, key: {}}):
            with pytest.raises(ValidationError):
                _reference_dumps(value)
            with pytest.raises(ValidationError, match="keys must be strings"):
                canonical_dumps(value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), {1, 2}, object(), bytearray(b"x")])
    def test_unserializable_refused_at_any_depth(self, bad):
        for value in (bad, [bad], {"a": {"b": [1, bad]}}, ({"c": bad},)):
            with pytest.raises(ValidationError):
                canonical_dumps(value)

    @pytest.mark.parametrize("data", [
        '{"a":"\u00e9"}'.encode("utf-8"), b'{"a":[1,2', b'{"a":', b"",
        b'["!b","zz"]', b'["!c",true]', b'["!t",NaN]', b'{"a":[["!c",1.5],["!t",true]]}',
    ])
    def test_malformed_payload_refused(self, data):
        with pytest.raises(ValidationError):
            canonical_loads(data)

    def test_deep_nesting_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            canonical_loads(b"[" * 5000 + b"]" * 5000)
        with pytest.raises(ValidationError):
            canonical_loads(b'{"a":' * 5000 + b"1" + b"}" * 5000)
        deep: Any = []
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(ValidationError):
            canonical_dumps(deep)
        cyclic: list = []
        cyclic.append(cyclic)
        with pytest.raises(ValidationError):
            canonical_dumps(cyclic)

    def test_pinned_digests(self):
        """The bytes signatures, WAL records and reply rows already carry:
        both digests were taken with the recursive reference codec above."""
        statement = canonical_dumps(statement_reply())
        assert hashlib.sha256(canonical_dumps(CONFIRMATION)).hexdigest() == (
            "90e58459315f2fc7d0f9386ca7aefbab30fd4baff05966228fd5e8523676f12f"
        )
        assert hashlib.sha256(statement).hexdigest() == (
            "4dc25420de0b0ed51147bf99ecbef0ca3ea42742fe0c63881842dfbb48738169"
        )
        _assert_same_value(canonical_loads(statement), _reference_loads(statement))
