"""Smart-meter data pipeline: encode, encrypt, wrap into transactions.

Readings are serialised to canonical text fields, each field is encrypted
with AES-256-CTR under the account's 32-byte symmetric key, and the three
ciphertexts are wrapped into a record-append transaction for the chain.

Counter layout: every record draws a fresh 16-byte base counter whose last
four bytes are zero; byte 12 carries the field index (0=id, 1=time, 2=value)
and bytes 13..15 count keystream blocks big-endian, so the three fields of a
record never share keystream. A field can therefore span at most 2**24
blocks (256 MiB); past that its block count would run into the field index
and repeat the next field's keystream, so the record cipher raises
FieldTooLong for a longer field before it touches the data. A key is expanded
once, when its SymmetricKey is made; the AES library is imported then too, so
importing this module does not load it. A record's keystream comes from one AES
call over the counter blocks of all three fields, and one XOR applies it to
the three fields, each zero-padded to whole blocks.

The deployment being modelled reuses an account's private key as its AES
key. That conflation is kept here (one 32-byte secret doubles as the address
seed) for fidelity; it is not a recommendation.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .chain import Address, Transaction
from .contract import CallKind, ContractCall

KEY_LEN = 32
COUNTER_LEN = 16
NONCE_RANDOM_LEN = 12
# Keystream blocks one record field can take: its counter counts them in
# three bytes.
MAX_FIELD_BLOCKS = 1 << 24

# Largest energy step between two simulated readings, in kWh.
MAX_STEP_KWH = 0.5


def __getattr__(name: str):
    """The block-cipher names of the AES library, imported on first use.
    ``SymmetricKey`` reads them as attributes of this module, so a test can
    replace one."""
    if name in ("Cipher", "algorithms", "modes"):
        from cryptography.hazmat.primitives import ciphers

        return getattr(ciphers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class MeterError(Exception):
    pass


class BadKeyLength(MeterError):
    pass


class MalformedPlaintext(MeterError):
    """Decryption produced bytes that do not decode; wrong key or corruption."""


class FieldTooLong(MeterError, ValueError):
    """A record field is longer than its counter range can encrypt."""


@dataclass(frozen=True, slots=True, repr=False)
class SymmetricKey:
    """A 32-byte AES-256 key, expanded once into a block-cipher context.

    Equality and hashing use the key bytes alone; the repr hides them.
    """

    bytes: bytes
    _aes: object = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.bytes) != KEY_LEN:
            raise BadKeyLength(f"key must be {KEY_LEN} bytes, got {len(self.bytes)}")
        # ECB over whole blocks is the bare AES block function, which is CTR's
        # own: CTR encrypts each counter block and XORs the result into the
        # data (NIST SP 800-38A section 6.5). Only distinct counter blocks are
        # ever passed in, so no two outputs repeat a block.
        lib = sys.modules[__name__]
        cipher = lib.Cipher(lib.algorithms.AES(self.bytes), lib.modes.ECB())
        object.__setattr__(self, "_aes", cipher.encryptor())

    def __repr__(self) -> str:
        return f"SymmetricKey(<{KEY_LEN} secret bytes>)"

    def __reduce__(self):
        # The cipher context does not pickle; a copy rebuilds it from the bytes.
        return SymmetricKey, (self.bytes,)

    def encrypt_blocks(self, blocks: bytes) -> bytes:
        """AES-256 of each 16-byte block of ``blocks``, in one call."""
        return self._aes.update(blocks)


@dataclass(frozen=True, slots=True)
class MeterAccount:
    """An account whose 32-byte secret doubles as AES key and address seed."""

    name: str
    key: SymmetricKey

    @property
    def address(self) -> Address:
        return Address.from_seed(self.key.bytes)

    @classmethod
    def generate(cls, name: str, rng: random.Random) -> "MeterAccount":
        return cls(name=name, key=SymmetricKey(rng.randbytes(KEY_LEN)))


@dataclass(frozen=True, slots=True)
class MeterRecord:
    """One reading: device id, collection time, cumulative energy in kWh.

    Energy is a non-negative decimal with exactly three fractional digits.
    """

    device_id: str
    collected_at: int
    energy_kwh: Decimal

    def __post_init__(self) -> None:
        if self.collected_at < 0:
            raise ValueError("collection time must be non-negative")
        quantised = Decimal(self.energy_kwh).quantize(Decimal("0.001"))
        if quantised < 0:
            raise ValueError("energy must be non-negative")
        object.__setattr__(self, "energy_kwh", quantised)


@dataclass(frozen=True, slots=True)
class EncryptedRecord:
    """Ciphertexts of the three record fields plus the base counter block."""

    id_ct: bytes
    time_ct: bytes
    value_ct: bytes
    nonce: bytes

    def __post_init__(self) -> None:
        if len(self.nonce) != COUNTER_LEN:
            raise ValueError(f"nonce must be {COUNTER_LEN} bytes")


def encode_record(rec: MeterRecord) -> tuple[bytes, bytes, bytes]:
    """Canonical text encodings: id as-is, time as a decimal integer string,
    value as a fixed-point string with three decimals."""
    return (
        rec.device_id.encode("utf-8"),
        str(rec.collected_at).encode("ascii"),
        f"{rec.energy_kwh:.3f}".encode("ascii"),
    )


def decode_record(id_bytes: bytes, time_bytes: bytes, value_bytes: bytes) -> MeterRecord:
    """Inverse of encode_record; raises MalformedPlaintext on any mismatch."""
    try:
        device_id = id_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedPlaintext("device id is not valid UTF-8") from exc
    time_s = time_bytes.decode("ascii", errors="replace")
    if not time_s.isdigit():
        raise MalformedPlaintext("collection time is not a decimal integer")
    value_s = value_bytes.decode("ascii", errors="replace")
    whole, dot, frac = value_s.partition(".")
    if dot != "." or len(frac) != 3 or not whole.isdigit() or not frac.isdigit():
        raise MalformedPlaintext("energy value is not a fixed-point decimal")
    try:
        energy = Decimal(value_s)
    except InvalidOperation as exc:  # pragma: no cover - guarded above
        raise MalformedPlaintext("energy value does not parse") from exc
    return MeterRecord(device_id=device_id, collected_at=int(time_s), energy_kwh=energy)


_COUNTER_MOD = 1 << (8 * COUNTER_LEN)


def _counter_blocks(counter0: bytes, length: int) -> bytes:
    """The counter blocks that cover ``length`` bytes: ``counter0 + j`` as a
    128-bit big-endian integer mod 2**128, as the library's CTR mode counts."""
    start = int.from_bytes(counter0, "big")
    return b"".join(
        ((start + j) % _COUNTER_MOD).to_bytes(COUNTER_LEN, "big")
        for j in range(-(-length // COUNTER_LEN))
    )


def _xor(data: bytes, keystream: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` bytes of ``keystream``."""
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(keystream[:n], "big")).to_bytes(n, "big")


def encrypt_field(plaintext: bytes, key: SymmetricKey, counter0: bytes) -> bytes:
    """AES-256 counter mode with big-endian counter increment.

    Ciphertext length equals plaintext length; empty input yields empty
    output. Decryption is the same operation.
    """
    if len(counter0) != COUNTER_LEN:
        raise ValueError(f"counter block must be {COUNTER_LEN} bytes")
    return _xor(plaintext, key.encrypt_blocks(_counter_blocks(counter0, len(plaintext))))


decrypt_field = encrypt_field  # CTR is its own inverse


def field_counter(nonce: bytes, field_index: int) -> bytes:
    """Per-field initial counter: record nonce with the field index mixed in."""
    return nonce[:NONCE_RANDOM_LEN] + bytes([field_index]) + b"\x00\x00\x00"


def fresh_nonce(rng: random.Random) -> bytes:
    return rng.randbytes(NONCE_RANDOM_LEN) + b"\x00" * (COUNTER_LEN - NONCE_RANDOM_LEN)


def _crypt_record_fields(
    fields: tuple[bytes, bytes, bytes], key: SymmetricKey, nonce: bytes
) -> tuple[bytes, bytes, bytes]:
    """Counter-mode transform of the three fields of one record: one AES call
    over the counter blocks of all three, then one XOR of the fields, each
    zero-padded to whole blocks, with that keystream.

    Block j of field i has the counter ``nonce[:12] + bytes([i]) + j`` with
    j in three big-endian bytes, so a field longer than
    ``MAX_FIELD_BLOCKS`` blocks raises FieldTooLong before any work is done.
    """
    lengths = list(map(len, fields))
    if max(lengths) > MAX_FIELD_BLOCKS * COUNTER_LEN:
        raise FieldTooLong(
            f"a record field holds at most {MAX_FIELD_BLOCKS * COUNTER_LEN} bytes"
        )
    prefix = nonce[:NONCE_RANDOM_LEN]
    counters = []
    padded = []
    for index, data in enumerate(fields):
        blocks = -(-len(data) // COUNTER_LEN)
        for j in range(blocks):
            counters.append(prefix + bytes((index, j >> 16, (j >> 8) & 0xFF, j & 0xFF)))
        padded.append(data.ljust(blocks * COUNTER_LEN, b"\x00"))
    out = _xor(b"".join(padded), key.encrypt_blocks(b"".join(counters)))
    id_end = len(padded[0])
    time_end = id_end + len(padded[1])
    return (
        out[:lengths[0]],
        out[id_end:id_end + lengths[1]],
        out[time_end:time_end + lengths[2]],
    )


def encrypt_record(rec: MeterRecord, key: SymmetricKey, rng: random.Random) -> EncryptedRecord:
    """Encode then encrypt a reading under a fresh per-record nonce."""
    nonce = fresh_nonce(rng)
    id_ct, time_ct, value_ct = _crypt_record_fields(encode_record(rec), key, nonce)
    return EncryptedRecord(id_ct=id_ct, time_ct=time_ct, value_ct=value_ct, nonce=nonce)


def decrypt_record(enc: EncryptedRecord, key: SymmetricKey) -> MeterRecord:
    """Exact inverse of encrypt_record; MalformedPlaintext signals a wrong
    key or a corrupted/truncated ciphertext."""
    fields = (enc.id_ct, enc.time_ct, enc.value_ct)
    return decode_record(*_crypt_record_fields(fields, key, enc.nonce))


def pack_record_fields(enc: EncryptedRecord) -> tuple[bytes, bytes, bytes]:
    """Wire form of the three record fields for the on-chain call.

    The nonce is carried in front of the id ciphertext so the stored record
    alone suffices to decrypt; the registry treats all three as opaque.
    """
    return (enc.nonce + enc.id_ct, enc.time_ct, enc.value_ct)


def unpack_record_fields(id_field: bytes, time_field: bytes, value_field: bytes) -> EncryptedRecord:
    if len(id_field) < COUNTER_LEN:
        raise MalformedPlaintext("stored id field shorter than the counter block")
    return EncryptedRecord(
        id_ct=id_field[COUNTER_LEN:],
        time_ct=time_field,
        value_ct=value_field,
        nonce=id_field[:COUNTER_LEN],
    )


def build_record_tx(enc: EncryptedRecord, sender: Address, gas: int) -> Transaction:
    """Wrap an encrypted record into a record-append transaction of
    ``gas``, which a simulated run requires to be its ``mean_tx_gas``. Its
    id is 0 until the simulator numbers it by arrival.
    """
    id_field, time_field, value_field = pack_record_fields(enc)
    call = ContractCall(
        kind=CallKind.NEW_RECO,
        record_id=id_field,
        record_time=time_field,
        record_value=value_field,
    )
    return Transaction(
        tx_id=0,
        sender=sender,
        gas=gas,
        payload=call,
    )


def simulate_meter_stream(
    device_id: str,
    interval_s: int,
    duration_s: int,
    rng: random.Random,
    start_time: int = 0,
) -> list[MeterRecord]:
    """Readings at a fixed cadence with a non-decreasing cumulative energy."""
    if interval_s <= 0:
        raise ValueError("interval must be positive")
    count = duration_s // interval_s
    records = []
    energy = Decimal("0.000")
    for k in range(count):
        energy += Decimal(f"{rng.uniform(0.0, MAX_STEP_KWH):.3f}")
        records.append(
            MeterRecord(
                device_id=device_id,
                collected_at=start_time + k * interval_s,
                energy_kwh=energy,
            )
        )
    return records


class MeterStreamError(ValueError):
    """A meter stream file that cannot be read or has malformed lines."""


def _parse_reading(line: str) -> MeterRecord:
    parts = line.split(",")
    if len(parts) != 3:
        raise ValueError("expected device_id,unix_time,kwh")
    device, time_s, kwh = parts
    try:
        collected_at = int(time_s)
    except ValueError:
        raise ValueError(f"unix time {time_s!r} is not an integer") from None
    try:
        return MeterRecord(device_id=device, collected_at=collected_at, energy_kwh=Decimal(kwh))
    except InvalidOperation:
        raise ValueError(f"kWh value {kwh!r} is not a finite decimal number") from None


def load_meter_stream(path) -> list[MeterRecord]:
    """The records of a ``device_id,unix_time,kwh`` file; blank lines and
    '#' comments are skipped. Raises MeterStreamError naming ``path:line``
    and the reason for every malformed line, or the file if it cannot be
    read."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeterStreamError(f"{path}: cannot read meter file: {exc}") from exc
    records = []
    problems = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append(_parse_reading(line))
        except ValueError as exc:
            problems.append(f"{path}:{lineno}: {exc}")
    if problems:
        raise MeterStreamError("\n".join(problems))
    return records
