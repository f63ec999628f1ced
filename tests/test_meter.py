import copy
import pickle
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridchain import meter
from gridchain.contract import CallKind
from gridchain.meter import (
    BadKeyLength,
    EncryptedRecord,
    MalformedPlaintext,
    MeterAccount,
    MeterError,
    MeterRecord,
    MeterStreamError,
    SymmetricKey,
    build_record_tx,
    decode_record,
    decrypt_field,
    decrypt_record,
    encode_record,
    encrypt_field,
    encrypt_record,
    field_counter,
    fresh_nonce,
    load_meter_stream,
    pack_record_fields,
    simulate_meter_stream,
    unpack_record_fields,
)

from conftest import addr
from oracles import crypt_record_fieldwise, ctr_keystream_xor, save_meter_stream

# AES-256-CTR vectors published in NIST SP 800-38A (F.5.5 encrypt / F.5.6
# decrypt): 256-bit key, standard initial counter block, four blocks.
NIST_KEY = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d7781" "1f352c073b6108d72d9810a30914dff4"
)
NIST_COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
NIST_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
NIST_CIPHERTEXT = bytes.fromhex(
    "601ec313775789a5b7a7f504bbf3d228"
    "f443e3ca4d62b59aca84e990cacaf5c5"
    "2b0930daa23de94ce87017ba2d84988d"
    "dfc9c58db67aada613c2dd08457941a6"
)


class TestEncryptField:
    def test_nist_encrypt_vector(self):
        key = SymmetricKey(NIST_KEY)
        assert encrypt_field(NIST_PLAINTEXT, key, NIST_COUNTER) == NIST_CIPHERTEXT

    def test_nist_decrypt_vector(self):
        key = SymmetricKey(NIST_KEY)
        assert decrypt_field(NIST_CIPHERTEXT, key, NIST_COUNTER) == NIST_PLAINTEXT

    def test_nist_vector_blockwise(self):
        # counter increments big-endian: each 16-byte block must line up
        key = SymmetricKey(NIST_KEY)
        got = encrypt_field(NIST_PLAINTEXT, key, NIST_COUNTER)
        for k in range(4):
            assert got[16 * k : 16 * (k + 1)] == NIST_CIPHERTEXT[16 * k : 16 * (k + 1)]

    def test_empty_plaintext(self):
        key = SymmetricKey(NIST_KEY)
        assert encrypt_field(b"", key, NIST_COUNTER) == b""

    def test_length_preserving(self):
        key = SymmetricKey(NIST_KEY)
        for n in (1, 15, 16, 17, 100):
            assert len(encrypt_field(b"x" * n, key, NIST_COUNTER)) == n

    def test_key_length_enforced(self):
        with pytest.raises(BadKeyLength):
            SymmetricKey(b"\x00" * 16)

    def test_counter_length_enforced(self):
        with pytest.raises(ValueError):
            encrypt_field(b"x", SymmetricKey(NIST_KEY), b"\x00" * 8)

    def test_roundtrip_random(self):
        rng = random.Random(1)
        key = SymmetricKey(rng.randbytes(32))
        for _ in range(50):
            data = rng.randbytes(rng.randint(0, 4096))
            ctr = rng.randbytes(16)
            assert decrypt_field(encrypt_field(data, key, ctr), key, ctr) == data


# Counter blocks as integers: anywhere, or within four blocks of a carry out
# of the low 32 or 64 bits, or of the wrap at 2**128.
COUNTERS = st.one_of(
    st.integers(min_value=0, max_value=2**128 - 1),
    st.integers(min_value=2**32 - 4, max_value=2**32 + 4),
    st.integers(min_value=2**64 - 4, max_value=2**64 + 4),
    st.integers(min_value=2**128 - 5, max_value=2**128 - 1),
)
KEYS = st.binary(min_size=32, max_size=32).map(SymmetricKey)


class TestAgainstLibraryCtr:
    """The keystream built from one AES context per key must equal the
    library's own CTR mode, one cipher per field."""

    @settings(max_examples=300, deadline=None)
    @given(
        key=KEYS,
        counter=COUNTERS,
        length=st.one_of(st.integers(min_value=0, max_value=200), st.just(4099)),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_encrypt_field_matches_oracle(self, key, counter, length, seed):
        data = random.Random(seed).randbytes(length)
        counter0 = counter.to_bytes(16, "big")
        assert encrypt_field(data, key, counter0) == ctr_keystream_xor(data, key, counter0)

    def test_wrap_at_2_128(self):
        key = SymmetricKey(NIST_KEY)
        counter0 = b"\xff" * 16
        got = encrypt_field(b"\x00" * 32, key, counter0)
        assert got[16:] == encrypt_field(b"\x00" * 16, key, b"\x00" * 16)
        assert got == ctr_keystream_xor(b"\x00" * 32, key, counter0)

    @settings(max_examples=150, deadline=None)
    @given(
        key=KEYS,
        device=st.text(max_size=200),
        at=st.integers(min_value=0, max_value=2**64),
        milli=st.integers(min_value=0, max_value=10**12),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_encrypt_record_matches_fieldwise_oracle(self, key, device, at, milli, seed):
        rec = MeterRecord(device, at, Decimal(milli) / 1000)
        enc = encrypt_record(rec, key, random.Random(seed))
        assert enc.nonce == fresh_nonce(random.Random(seed))
        want = crypt_record_fieldwise(encode_record(rec), key, enc.nonce)
        assert (enc.id_ct, enc.time_ct, enc.value_ct) == want

    @settings(max_examples=150, deadline=None)
    @given(
        key=KEYS,
        device=st.text(max_size=200),
        at=st.integers(min_value=0, max_value=2**64),
        milli=st.integers(min_value=0, max_value=10**12),
        nonce=st.binary(min_size=16, max_size=16),
    )
    def test_decrypt_record_inverts_fieldwise_oracle(self, key, device, at, milli, nonce):
        rec = MeterRecord(device, at, Decimal(milli) / 1000)
        id_ct, time_ct, value_ct = crypt_record_fieldwise(encode_record(rec), key, nonce)
        enc = EncryptedRecord(id_ct=id_ct, time_ct=time_ct, value_ct=value_ct, nonce=nonce)
        assert decrypt_record(enc, key) == rec

    def test_record_field_past_two_block_carries_matches_fieldwise_oracle(self):
        # 2**16 + 3 blocks: the block index carries into both of its high bytes.
        rng = random.Random(21)
        key = SymmetricKey(rng.randbytes(32))
        fields = (rng.randbytes(16 * (2**16 + 2) + 5), b"1750000000", b"0.125")
        nonce = rng.randbytes(16)
        got = meter._crypt_record_fields(fields, key, nonce)
        assert got == crypt_record_fieldwise(fields, key, nonce)

    def test_key_expanded_once(self, monkeypatch):
        built = []
        real_cipher = meter.Cipher

        def counting_cipher(*args, **kwargs):
            built.append(args)
            return real_cipher(*args, **kwargs)

        monkeypatch.setattr(meter, "Cipher", counting_cipher)
        rng = random.Random(15)
        key = SymmetricKey(rng.randbytes(32))
        for k in range(5):
            rec = MeterRecord("SM-01", 1622966400 + k, Decimal(k))
            assert decrypt_record(encrypt_record(rec, key, rng), key) == rec
        assert len(built) == 1

    def test_one_aes_call_per_record(self, monkeypatch):
        calls = []
        real_encrypt_blocks = SymmetricKey.encrypt_blocks

        def counting(self, blocks):
            calls.append(len(blocks))
            return real_encrypt_blocks(self, blocks)

        monkeypatch.setattr(SymmetricKey, "encrypt_blocks", counting)
        rng = random.Random(16)
        key = SymmetricKey(rng.randbytes(32))
        rec = MeterRecord("SM-" + "x" * 20, 1622966400, Decimal("12.5"))
        enc = encrypt_record(rec, key, rng)
        assert calls == [16 * (2 + 1 + 1)]
        decrypt_record(enc, key)
        assert calls == [64, 64]


class TestKeyMaterial:
    def test_repr_hides_key_bytes(self):
        acct = MeterAccount.generate("SM-01", random.Random(17))
        key = acct.key
        for text in (repr(key), repr(acct)):
            assert key.bytes.hex() not in text
            assert repr(key.bytes) not in text

    def test_equality_and_hash_use_key_bytes_alone(self):
        raw = random.Random(18).randbytes(32)
        a, b = SymmetricKey(raw), SymmetricKey(bytes(raw))
        assert a == b and hash(a) == hash(b)
        assert a != SymmetricKey(bytes(32))

    def test_pickle_and_deepcopy_keep_the_key(self):
        acct = MeterAccount.generate("SM-01", random.Random(19))
        rec = MeterRecord("SM-01", 1622966400, Decimal("1.5"))
        for copied in (pickle.loads(pickle.dumps(acct)), copy.deepcopy(acct)):
            assert copied == acct
            enc = encrypt_record(rec, copied.key, random.Random(20))
            assert enc == encrypt_record(rec, acct.key, random.Random(20))


class TestEncodeRecord:
    def test_canonical_formatting(self):
        rec = MeterRecord("SM-01", 1622966400, Decimal("12.5"))
        assert encode_record(rec) == (b"SM-01", b"1622966400", b"12.500")

    def test_zero_energy(self):
        rec = MeterRecord("SM-01", 1, Decimal(0))
        assert encode_record(rec)[2] == b"0.000"

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            MeterRecord("SM-01", 1, Decimal("-0.5"))

    @settings(max_examples=80, deadline=None)
    @given(
        device=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=16
        ),
        at=st.integers(min_value=0, max_value=2**40),
        milli=st.integers(min_value=0, max_value=10**9),
    )
    def test_decode_encode_roundtrip(self, device, at, milli):
        rec = MeterRecord(device, at, Decimal(milli) / 1000)
        assert decode_record(*encode_record(rec)) == rec


class TestRecordEncryption:
    def key(self, seed=7):
        return SymmetricKey(random.Random(seed).randbytes(32))

    def test_roundtrip(self):
        rng = random.Random(3)
        rec = MeterRecord("SM-02", 1622966455, Decimal("8.250"))
        enc = encrypt_record(rec, self.key(), rng)
        assert decrypt_record(enc, self.key()) == rec

    def test_ciphertext_lengths_match_plaintexts(self):
        rng = random.Random(3)
        rec = MeterRecord("SM-02", 1622966455, Decimal("8.250"))
        id_b, time_b, value_b = encode_record(rec)
        enc = encrypt_record(rec, self.key(), rng)
        assert (len(enc.id_ct), len(enc.time_ct), len(enc.value_ct)) == (
            len(id_b), len(time_b), len(value_b),
        )

    def test_distinct_nonces_give_distinct_ciphertexts(self):
        rng = random.Random(4)
        rec = MeterRecord("SM-02", 1622966455, Decimal("8.250"))
        enc1 = encrypt_record(rec, self.key(), rng)
        enc2 = encrypt_record(rec, self.key(), rng)
        assert enc1.nonce != enc2.nonce
        assert enc1.id_ct != enc2.id_ct or enc1.value_ct != enc2.value_ct

    def test_deterministic_given_rng_state(self):
        rec = MeterRecord("SM-02", 1622966455, Decimal("8.250"))
        enc1 = encrypt_record(rec, self.key(), random.Random(9))
        enc2 = encrypt_record(rec, self.key(), random.Random(9))
        assert enc1 == enc2

    def test_fields_never_share_keystream(self):
        nonce = b"\xaa" * 12 + b"\x00" * 4
        counters = {field_counter(nonce, i) for i in range(3)}
        assert len(counters) == 3

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_field_past_the_counter_range_rejected(self, monkeypatch, index):
        class Oversized(bytes):
            """One byte that reports one byte more than 2**24 blocks hold."""

            def __len__(self):
                return 2**28 + 1

        calls = []
        monkeypatch.setattr(SymmetricKey, "encrypt_blocks",
                            lambda self, blocks: calls.append(blocks))
        fields = [b"SM-02", b"1622966455", b"8.250"]
        fields[index] = Oversized(b"x")
        enc = EncryptedRecord(*fields, nonce=bytes(16))
        with pytest.raises(ValueError, match="at most 268435456 bytes") as excinfo:
            decrypt_record(enc, self.key())
        assert isinstance(excinfo.value, MeterError)  # the e2e demo counts it as a failure
        assert calls == []

    def test_wrong_key_raises_malformed(self):
        rng = random.Random(5)
        rec = MeterRecord("SM-02", 1622966455, Decimal("8.250"))
        enc = encrypt_record(rec, self.key(seed=1), rng)
        with pytest.raises(MalformedPlaintext):
            decrypt_record(enc, self.key(seed=2))

    def test_truncated_ciphertext_raises_malformed(self):
        rng = random.Random(6)
        rec = MeterRecord("SM-02", 1622966455, Decimal("8.250"))
        enc = encrypt_record(rec, self.key(), rng)
        cut = EncryptedRecord(
            id_ct=enc.id_ct, time_ct=enc.time_ct, value_ct=enc.value_ct[:2],
            nonce=enc.nonce,
        )
        with pytest.raises(MalformedPlaintext):
            decrypt_record(cut, self.key())


class TestRecordTx:
    def test_default_size_and_payload(self):
        rng = random.Random(11)
        acct = MeterAccount.generate("SM-01", rng)
        rec = MeterRecord("SM-01", 1622966400, Decimal("12.5"))
        tx = build_record_tx(encrypt_record(rec, acct.key, rng), acct.address, 45_000)
        assert tx.payload.kind is CallKind.NEW_RECO
        assert tx.sender == acct.address

    def test_pack_unpack_roundtrip(self):
        rng = random.Random(13)
        acct = MeterAccount.generate("SM-01", rng)
        rec = MeterRecord("SM-01", 1622966401, Decimal("3.141"))
        enc = encrypt_record(rec, acct.key, rng)
        assert unpack_record_fields(*pack_record_fields(enc)) == enc

    def test_stored_fields_alone_decrypt(self):
        rng = random.Random(14)
        acct = MeterAccount.generate("SM-01", rng)
        rec = MeterRecord("SM-01", 1622966402, Decimal("0.001"))
        tx = build_record_tx(encrypt_record(rec, acct.key, rng), acct.address, 45_000)
        call = tx.payload
        enc = unpack_record_fields(call.record_id, call.record_time, call.record_value)
        assert decrypt_record(enc, acct.key) == rec


class TestCiphertextUniformity:
    def test_byte_frequency_chi_square_smoke(self):
        # 1 MB of highly structured plaintext must encrypt to byte
        # frequencies consistent with uniform: chi-square over 256 bins with
        # 255 degrees of freedom stays under the ~0.1% quantile bound of
        # ~330. A sanity check of the keystream, not a security proof.
        rng = random.Random(0xC0DE)
        key = SymmetricKey(rng.randbytes(32))
        plaintext = (b"device=SM-01,time=1622966400,kwh=00012.500;" * 24420)[: 1 << 20]
        ct = encrypt_field(plaintext, key, rng.randbytes(16))
        counts = [0] * 256
        for b in ct:
            counts[b] += 1
        expected = len(ct) / 256
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 330.0, f"chi-square {chi2:.1f} implausibly far from uniform"


class TestMeterStream:
    def test_count_is_duration_over_interval(self):
        records = simulate_meter_stream("SM-01", 10, 60, random.Random(1))
        assert len(records) == 6

    def test_energy_non_decreasing_and_times_fixed_cadence(self):
        records = simulate_meter_stream("SM-01", 5, 300, random.Random(2), start_time=100)
        energies = [r.energy_kwh for r in records]
        assert all(b >= a for a, b in zip(energies, energies[1:]))
        assert [r.collected_at for r in records] == [100 + 5 * k for k in range(60)]

    def test_same_seed_same_stream(self):
        a = simulate_meter_stream("SM-01", 5, 120, random.Random(42))
        b = simulate_meter_stream("SM-01", 5, 120, random.Random(42))
        assert a == b

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_meter_stream("SM-01", 0, 60, random.Random(1))

    def test_file_roundtrip(self, tmp_path):
        records = simulate_meter_stream("SM-07", 15, 450, random.Random(3))
        path = tmp_path / "stream.txt"
        save_meter_stream(records, path)
        assert load_meter_stream(path) == records

    def test_file_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SM-01,123\n")
        with pytest.raises(ValueError):
            load_meter_stream(path)

    def test_file_names_every_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SM-01,123\nSM-01,5,1.000\n# note\nSM-01,9,NaN\n")
        with pytest.raises(MeterStreamError) as err:
            load_meter_stream(path)
        assert str(err.value).splitlines() == [
            f"{path}:1: expected device_id,unix_time,kwh",
            f"{path}:4: kWh value 'NaN' is not a finite decimal number",
        ]
