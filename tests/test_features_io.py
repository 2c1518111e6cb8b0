"""Round-trip and error-contract tests for the feature file formats."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from tafssl import features_io
from tafssl.config import BenchmarkConfig
from tafssl.episodes import EpisodeSpec, FeatureStore, MoGSpec, generate_mog_store, mutual_information_diagnostic, sample_episode
from tafssl.features_io import CLASS_HEADER, HEADER, MAGIC, VERSION, load_features, save_features
from tafssl.harness import run_benchmark
from tafssl.report import write_csv


@pytest.fixture
def store():
    return generate_mog_store(MoGSpec(m=5, signal_dims=2), 4, 7, seed=11)


def stores_equal(a: FeatureStore, b: FeatureStore) -> bool:
    if sorted(a.classes) != sorted(b.classes):
        return False
    return all(np.array_equal(a.classes[c], b.classes[c]) for c in a.classes)


def _ref_load_binary(path):
    """The binary loader in its plainest form, one pass over the whole file
    that checks each class's values as it reads them: the oracle for the
    two-pass loader's values and messages."""
    blob = path.read_bytes()
    if len(blob) < HEADER.size:
        raise ValueError(f"truncated file: expected at least {HEADER.size} header bytes, got {len(blob)}")
    magic, version, m, n_classes = HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValueError(f"unsupported version {version}, expected {VERSION}")
    offset = HEADER.size
    classes: dict[int, np.ndarray] = {}
    for _ in range(n_classes):
        if len(blob) < offset + CLASS_HEADER.size:
            raise ValueError(f"truncated file: expected {offset + CLASS_HEADER.size} bytes, got {len(blob)}")
        cid, count = CLASS_HEADER.unpack_from(blob, offset)
        offset += CLASS_HEADER.size
        nbytes = count * m * 4
        if len(blob) < offset + nbytes:
            raise ValueError(f"truncated file: expected {offset + nbytes} bytes, got {len(blob)}")
        X = np.frombuffer(blob, dtype="<f4", count=count * m, offset=offset).reshape(count, m).astype(np.float64)
        bad = ~np.isfinite(X).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite value in class {cid}, row {int(np.flatnonzero(bad)[0])}")
        if cid in classes:
            raise ValueError(f"duplicate class id {cid}")
        classes[cid] = X
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"trailing data: expected {offset} bytes, got {len(blob)}")
    return FeatureStore(classes=classes)


def binary_file(classes, m, magic=MAGIC, version=VERSION) -> bytes:
    """A binary feature file holding (class id, float32 rows) pairs in the given order."""
    blob = HEADER.pack(magic, version, m, len(classes))
    for cid, X in classes:
        blob += CLASS_HEADER.pack(cid, X.shape[0]) + np.ascontiguousarray(X, dtype="<f4").tobytes()
    return blob


def rows(seed, count, m):
    return np.random.default_rng(seed).standard_normal((count, m)).astype(np.float32)


def with_nan(X, row):
    X = X.copy()
    X[row, -1] = np.nan
    return X


EXTREMES = np.array([[-0.0, 3.4028235e38, -3.4028235e38, 1e-45, -1e-45, 1.0]], dtype=np.float32)  # ±0, ±max, subnormals
VALID_FILES = {
    "one-class": binary_file([(3, rows(0, 5, 4))], 4),
    "unequal-counts": binary_file([(0, rows(1, 2, 6)), (1, rows(2, 9, 6)), (2, EXTREMES)], 6),
    "m=1": binary_file([(0, rows(3, 4, 1)), (1, rows(4, 3, 1))], 1),
    "ids-out-of-order": binary_file([(9, rows(5, 3, 3)), (2, rows(6, 5, 3)), (40, rows(7, 1, 3)), (0, rows(8, 2, 3))], 3),
}
BASE = [(4, rows(9, 3, 5)), (1, rows(10, 6, 5)), (2, rows(11, 4, 5))]
FAULTY_FILES = {
    "bad-magic": binary_file(BASE, 5, magic=b"NOPE"),
    "bad-version": binary_file(BASE, 5, version=2),
    "truncated-header": binary_file(BASE, 5)[:10],
    "truncated-class-header": binary_file(BASE, 5)[: HEADER.size + 4],
    "truncated-payload": binary_file(BASE, 5)[:-10],
    "trailing-data": binary_file(BASE, 5) + b"xx",
    "duplicate-id": binary_file(BASE + [(1, rows(12, 2, 5))], 5),
    "nan-row": binary_file([BASE[0], (1, with_nan(BASE[1][1], 3)), BASE[2]], 5),
    "no-classes": binary_file([], 5),
    "empty-class": binary_file([BASE[0], (7, np.empty((0, 5)))], 5),
}


class TestBinaryLoaderMatchesOracle:
    """load_features matches the oracle ``_ref_load_binary`` in values,
    shapes, order and error messages, and holds its classes as row views of
    one float32 buffer."""

    @pytest.mark.parametrize("name", VALID_FILES)
    def test_values_dtype_shapes_and_order(self, name, tmp_path):
        path = tmp_path / "a.feats"
        path.write_bytes(VALID_FILES[name])
        store, expected = load_features(path), _ref_load_binary(path)
        assert list(store.classes) == list(expected.classes)
        for cid, X in expected.classes.items():
            got = store.classes[cid]
            # The oracle widens to float64; the store keeps the file's float32.
            assert (got.dtype, got.shape) == (np.float32, X.shape)
            assert got.astype(np.float64).tobytes() == X.tobytes()

    @pytest.mark.parametrize("name", VALID_FILES)
    def test_classes_are_row_views_of_one_buffer(self, name, tmp_path):
        path = tmp_path / "a.feats"
        path.write_bytes(VALID_FILES[name])
        store = load_features(path)
        buffer = next(iter(store.classes.values())).base
        assert buffer.dtype == np.float32 and buffer.flags.c_contiguous
        assert buffer.shape == (sum(X.shape[0] for X in store.classes.values()), store.m)
        row = 0
        for X in store.classes.values():  # file order
            assert X.base is buffer and X.ctypes.data == buffer[row].ctypes.data
            row += X.shape[0]

    @pytest.mark.parametrize("name", FAULTY_FILES)
    def test_each_fault_raises_the_oracle_message(self, name, tmp_path):
        path = tmp_path / "a.feats"
        path.write_bytes(FAULTY_FILES[name])
        with pytest.raises(ValueError) as expected:
            _ref_load_binary(path)
        with pytest.raises(ValueError) as got:
            load_features(path)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "blob,message",
        [
            (binary_file([(0, with_nan(rows(13, 3, 5), 0)), (1, rows(14, 3, 5))], 5) + b"x", "trailing data"),
            (binary_file([(0, with_nan(rows(13, 3, 5), 0)), (0, rows(14, 3, 5))], 5), "duplicate class id 0"),
            (binary_file([(0, with_nan(rows(13, 3, 5), 0)), (1, rows(14, 3, 5))], 5)[:-1], "truncated file"),
        ],
        ids=["trailing", "duplicate", "truncated"],
    )
    def test_structural_errors_come_before_non_finite_values(self, blob, message, tmp_path):
        # The oracle checks each class's values as it goes, so it names the
        # NaN in class 0; the loader runs every structural check before any payload is read.
        path = tmp_path / "a.feats"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="non-finite value in class 0, row 0"):
            _ref_load_binary(path)
        with pytest.raises(ValueError, match=message):
            load_features(path)


    def test_a_file_that_shrinks_after_the_size_check_is_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "a.feats"
        full = binary_file(BASE, 5)
        path.write_bytes(full[:-10])
        # The first pass is told the file's full size; the second pass then reads short.
        monkeypatch.setattr(features_io.os, "fstat", lambda fd: SimpleNamespace(st_size=len(full)))
        with pytest.raises(ValueError, match="truncated file: class 2 payload ended early"):
            load_features(path)


class TestBinary:
    def test_round_trip_bytes_identical(self, store, tmp_path):
        p1, p2 = tmp_path / "a.feats", tmp_path / "b.feats"
        save_features(store, p1)
        save_features(load_features(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float32_quantization_round_trips(self, store, tmp_path):
        p = tmp_path / "a.feats"
        save_features(store, p)
        loaded = load_features(p)
        for cid in store.classes:
            np.testing.assert_array_equal(
                loaded.classes[cid], store.classes[cid].astype(np.float32).astype(np.float64)
            )

    def test_a_negative_class_id_is_not_saved(self, tmp_path):
        p = tmp_path / "a.feats"
        with pytest.raises(ValueError, match=re.escape("binary format requires class ids in [0, 2^32)")):
            save_features(FeatureStore(classes={-1: np.ones((2, 3)), 0: np.zeros((2, 3))}), p)
        assert not p.exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.feats"
        p.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ValueError, match="bad magic"):
            load_features(p)

    def test_bad_version(self, store, tmp_path):
        p = tmp_path / "a.feats"
        save_features(store, p)
        blob = bytearray(p.read_bytes())
        blob[4] = 99
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unsupported version"):
            load_features(p)

    def test_truncation_reports_byte_counts(self, store, tmp_path):
        p = tmp_path / "a.feats"
        save_features(store, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(ValueError, match=r"truncated file: expected \d+ bytes, got \d+"):
            load_features(p)

    def test_trailing_garbage(self, store, tmp_path):
        p = tmp_path / "a.feats"
        save_features(store, p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(ValueError, match="trailing data"):
            load_features(p)

    def test_nonfinite_named_by_row(self, store, tmp_path):
        p = tmp_path / "a.feats"
        save_features(store, p)
        blob = bytearray(p.read_bytes())
        # Overwrite the first float of the first class payload with NaN.
        offset = 16 + 8
        blob[offset : offset + 4] = np.float32(np.nan).tobytes()
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="non-finite value in class 0, row 0"):
            load_features(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_features(tmp_path / "missing.feats")

    def test_zero_width_rows_rejected(self, tmp_path):
        p = tmp_path / "a.feats"
        p.write_bytes(binary_file([(0, np.empty((3, 0))), (1, np.empty((2, 0)))], 0))
        with pytest.raises(ValueError, match="feature dimension m must be >= 1, got 0"):
            load_features(p)


EPISODE_FIELDS = ("support", "support_labels", "query", "query_labels", "unlabeled", "unlabeled_labels", "pool")


class TestFloat32StoreMatchesFloat64Twin:
    """A loaded store stays float32 and episodes widen the rows they gather,
    so every number downstream equals that of the store's float64 twin."""

    @pytest.fixture
    def stores(self, tmp_path):
        path = tmp_path / "a.feats"
        save_features(generate_mog_store(MoGSpec(m=12, signal_dims=4), 10, 40, seed=3), path)
        loaded = load_features(path)
        twin = FeatureStore(classes={c: X.astype(np.float64) for c, X in loaded.classes.items()})
        assert next(iter(loaded.classes.values())).dtype == np.float32
        assert next(iter(twin.classes.values())).dtype == np.float64
        return loaded, twin

    @pytest.mark.parametrize(
        "settings",
        [
            {},
            {"mode": "semi", "unlabeled": 6, "distractors": 2},
            {"unbalanced_r": 5},
        ],
        ids=["transductive", "semi-distractors", "unbalanced"],
    )
    def test_episodes_are_byte_identical(self, stores, settings):
        loaded, twin = stores
        for seed in range(5):
            spec = EpisodeSpec(seed=seed, **settings)
            a, b = sample_episode(loaded, spec), sample_episode(twin, spec)
            assert a.class_ids == b.class_ids
            assert a.pool.dtype == b.pool.dtype == np.float64
            for field in EPISODE_FIELDS:
                x, y = getattr(a, field), getattr(b, field)
                assert (x.dtype, x.shape) == (y.dtype, y.shape), field
                assert x.tobytes() == y.tobytes(), field

    def test_run_csv_is_byte_identical(self, stores, tmp_path):
        cfg = BenchmarkConfig(method="bkm,msp,pca-bkm,pca-msp", mode="semi", unlabeled=6, distractors=2, dim=4, episodes=6)
        paths = [tmp_path / "loaded.csv", tmp_path / "twin.csv"]
        for store, path in zip(stores, paths):
            write_csv(path, [(None, run_benchmark(cfg, store=store))])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_mutual_information_is_byte_identical(self, stores):
        loaded, twin = stores
        assert mutual_information_diagnostic(loaded).tobytes() == mutual_information_diagnostic(twin).tobytes()


class TestNonFiniteMessage:
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_same_message_from_every_source(self, value, tmp_path):
        classes = [(cid, rows(cid, 7, 5)) for cid in (4, 0, 3, 1)]
        classes[2][1][5, 1] = value
        feats, csv_path = tmp_path / "a.feats", tmp_path / "a.csv"
        feats.write_bytes(binary_file(classes, 5))
        lines = ["label," + ",".join(f"f{j}" for j in range(5))]
        lines += [",".join([str(cid), *(str(v) for v in row)]) for cid, X in classes for row in X]
        csv_path.write_text("\n".join(lines) + "\n")
        sources = {
            "binary": lambda: load_features(feats),
            "csv": lambda: load_features(csv_path),
            "float64": lambda: FeatureStore(classes={cid: X.astype(np.float64) for cid, X in classes}),
            "float32": lambda: FeatureStore(classes=dict(classes)),
        }
        for name, make in sources.items():
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == "non-finite value in class 3, row 5", name


class TestSaveOutOfFloat32Range:
    """A float64 value beyond float32's range would be written as an
    infinity that no loader accepts; the save refuses it instead."""

    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_every_format_raises_the_same_message_and_writes_nothing(self, value, tmp_path):
        rows64 = rows(0, 4, 3).astype(np.float64)
        bad = rows64.copy()
        bad[2, 1] = value
        store = FeatureStore(classes={1: rows64, 5: bad, 0: np.full((2, 3), 3e38)})
        for name in ("a.feats", "a.csv"):
            path = tmp_path / name
            with pytest.raises(ValueError) as err:
                save_features(store, path)
            assert str(err.value) == "value out of float32 range in class 5, row 2", name
            assert not path.exists(), name

    def test_the_largest_float32_values_still_save(self, tmp_path):
        store = FeatureStore(classes={0: EXTREMES.astype(np.float64), 1: np.ones((1, EXTREMES.shape[1]))})
        for name in ("a.feats", "a.csv"):
            save_features(store, tmp_path / name)
            assert load_features(tmp_path / name).classes[0].tobytes() == EXTREMES.tobytes(), name


class TestCsv:
    def test_csv_equals_binary(self, store, tmp_path):
        pb, pc = tmp_path / "a.feats", tmp_path / "a.csv"
        save_features(store, pb)
        save_features(store, pc)
        assert stores_equal(load_features(pb), load_features(pc))

    def test_header_written(self, store, tmp_path):
        p = tmp_path / "a.csv"
        save_features(store, p)
        assert p.read_text().splitlines()[0] == "label," + ",".join(f"f{j}" for j in range(5))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("id,f0\n0,1.0\n")
        with pytest.raises(ValueError, match="bad CSV header"):
            load_features(p)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty CSV file"),
            ("label,f1,f0\n0,1.0,2.0\n", "bad CSV header: feature columns must be f0..f{m-1} in order"),
            ("label,f0,f1\n", "CSV file has no data rows"),
        ],
        ids=["empty", "misordered", "header-only"],
    )
    def test_a_malformed_file_names_its_fault(self, tmp_path, text, message):
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_features(p)

    def test_bad_value_names_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("label,f0\n0,1.0\n1,oops\n")
        with pytest.raises(ValueError, match="line 3"):
            load_features(p)

    def test_nonfinite_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("label,f0\n0,inf\n")
        with pytest.raises(ValueError, match="non-finite value in class 0, row 0"):
            load_features(p)

    def test_zero_width_rows_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("label\n0\n0\n1\n")
        with pytest.raises(ValueError, match="feature dimension m must be >= 1, got 0"):
            load_features(p)

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("label,f0,f1\n0,1.0\n")
        with pytest.raises(ValueError, match="expected 3 fields"):
            load_features(p)
