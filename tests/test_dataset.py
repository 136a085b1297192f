"""Dataset loading, splits, pair constraints, and the synthetic generator."""

import math
import multiprocessing
import re
import tracemalloc

import numpy as np
import pytest

import mfid.model
from mfid import (
    Dataset,
    TrainConfig,
    build_pair_constraints,
    draw_pairs,
    identity_disjoint_split,
    load_dataset,
    load_split,
    save_dataset,
    save_split,
    stratified_splits,
    synth_gaussian,
    train,
)
from mfid.dataset import (DISJOINT, STRATIFIED, LabelGroups, Split, dense_relabel,
                          pair_batch_counts)


def random_dataset(rng, n_identities=8, per_identity=6, dim=5):
    n = n_identities * per_identity
    features = rng.normal(size=(n, dim))
    labels = np.repeat(np.arange(n_identities), per_identity)
    order = rng.permutation(n)
    return Dataset(features[order], labels[order])


# ---------------------------------------------------------------------------
# Dataset container


def test_dataset_coerces_and_freezes():
    ds = Dataset([[1, 2], [3, 4]], [0, 1])
    assert ds.features.dtype == np.float64
    assert ds.n_samples == 2 and ds.dim == 2 and ds.n_identities == 2
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0


def test_dataset_rejects_sparse_labels():
    with pytest.raises(ValueError, match="dense"):
        Dataset(np.zeros((3, 2)), [0, 2, 2])


def test_dataset_rejects_non_finite_naming_row():
    feats = np.zeros((4, 3))
    feats[2, 1] = np.nan
    with pytest.raises(ValueError, match="sample 2"):
        Dataset(feats, [0, 0, 1, 1])


def test_dense_relabel_sorted_order():
    dense, originals = dense_relabel(np.array([30, 10, 30, 20]))
    assert originals.tolist() == [10, 20, 30]
    assert dense.tolist() == [2, 0, 2, 1]


# ---------------------------------------------------------------------------
# file formats


def test_csv_three_rows_two_identities(tmp_path):
    # labels {a,a,b} -> ids {0,0,1}
    path = tmp_path / "tiny.csv"
    path.write_text("id,label,f0,f1\n0,a,1.0,2.0\n1,a,3.0,4.0\n2,b,5.0,6.0\n")
    ds = load_dataset(path)
    assert ds.n_samples == 3
    assert ds.n_identities == 2
    assert ds.labels.tolist() == [0, 0, 1]
    assert ds.identity_names == {0: "a", 1: "b"}


def test_csv_wrong_width_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,f0,f1\n0,a,1.0,2.0\n1,a,3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_dataset(path)


def test_csv_malformed_value_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,f0\n0,a,1.0\n1,b,oops\n")
    with pytest.raises(ValueError, match="line 3"):
        load_dataset(path)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    ds = Dataset(rng.normal(size=(50, 16)) * 10.0 ** rng.integers(-8, 8, size=(50, 1)),
                 rng.permutation(np.repeat(np.arange(10), 5)))
    path = tmp_path / "roundtrip.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    # repr() rendering must reproduce every float64 bit-exactly
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_csv_round_trip_extreme_values(tmp_path):
    values = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-05, -1e-05,
              1e16, -1e16, 1.7e308, -1.7e308, 0.1, 1.0 / 3.0]
    features = np.array(values).reshape(-1, 1) * np.ones((1, 3))
    ds = Dataset(features, np.arange(len(values)) % 2)
    path = tmp_path / "extreme.csv"
    save_dataset(ds, path)
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    for row, value in zip(rows, values):
        assert row.split(",")[2:] == [repr(float(value))] * 3
    back = load_dataset(path)
    assert back.features.tobytes() == ds.features.tobytes()


def test_csv_load_holds_the_features_once(tmp_path):
    # Holding a Python float object per value would take over 5x the matrix.
    rng = np.random.default_rng(13)
    ds = Dataset(rng.normal(size=(2000, 64)), np.repeat(np.arange(100), 20))
    save_dataset(ds, tmp_path / "d.csv")
    tracemalloc.start()
    try:
        back = load_dataset(tmp_path / "d.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.features.tobytes() == ds.features.tobytes()
    assert peak < 2 * ds.features.nbytes


def test_csv_accepts_finite_row_whose_sum_overflows(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("id,label,f0,f1\n0,a,1e308,1e308\n1,b,-1e308,-1e308\n")
    ds = load_dataset(path)
    np.testing.assert_array_equal(ds.features, [[1e308, 1e308], [-1e308, -1e308]])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
@pytest.mark.parametrize("column", [0, 2])
def test_csv_non_finite_names_its_line(tmp_path, bad, column):
    good = "1.0,2.0,3.0"
    row = ",".join(bad if j == column else "1.0" for j in range(3))
    path = tmp_path / "bad.csv"
    path.write_text(f"# comment\nid,label,f0,f1,f2\n0,a,{good}\n\n1,a,{good}\n"
                    f"2,b,{row}\n3,b,{good}\n")
    with pytest.raises(ValueError, match=r"line 6: non-finite feature value"):
        load_dataset(path)


def test_csv_reports_non_finite_before_later_malformed_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,f0,f1\n0,a,1.0,2.0\n1,a,nan,2.0\n2,b,oops,2.0\n")
    with pytest.raises(ValueError, match=r"line 3: non-finite feature value"):
        load_dataset(path)
    # within one line a malformed value is reported, as before
    path.write_text("id,label,f0,f1\n0,a,1.0,2.0\n1,a,nan,oops\n")
    with pytest.raises(ValueError, match=r"line 3: malformed feature value"):
        load_dataset(path)


def test_binary_round_trip_exact(tmp_path):
    rng = np.random.default_rng(12)
    ds = Dataset(rng.normal(size=(50, 16)), rng.permutation(np.repeat(np.arange(5), 10)))
    path = tmp_path / "roundtrip.bin"
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(20))
    # The message text, not "magic": this test's tmp_path names it too.
    with pytest.raises(ValueError, match=re.escape("bad magic b'NOPE'")):
        load_dataset(path)


def test_binary_rejects_truncation(tmp_path):
    rng = np.random.default_rng(13)
    ds = Dataset(rng.normal(size=(4, 3)), [0, 0, 1, 1])
    path = tmp_path / "trunc.bin"
    save_dataset(ds, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match="bytes"):
        load_dataset(path)


def test_binary_rejects_every_truncation_and_padding(tmp_path):
    rng = np.random.default_rng(14)
    ds = Dataset(rng.normal(size=(4, 3)), [0, 0, 1, 1])
    path = tmp_path / "cut.bin"
    save_dataset(ds, path)
    blob = path.read_bytes()
    for damaged in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]:
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_dataset(path)


def test_binary_rejects_every_header_field_bit_flip(tmp_path):
    rng = np.random.default_rng(15)
    ds = Dataset(rng.normal(size=(4, 3)), [0, 0, 1, 1])
    path = tmp_path / "flip.bin"
    save_dataset(ds, path)
    blob = path.read_bytes()
    # version, sample count, feature dim: bytes 4-23
    for byte in range(4, 24):
        for bit in range(8):
            damaged = bytearray(blob)
            damaged[byte] ^= 1 << bit
            path.write_bytes(bytes(damaged))
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_dataset(path)


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_dataset(path)


def test_binary_save_writes_the_features_without_a_copy(tmp_path):
    rng = np.random.default_rng(16)
    ds = Dataset(rng.normal(size=(2000, 64)), np.repeat(np.arange(100), 20))
    tracemalloc.start()
    try:
        save_dataset(ds, tmp_path / "d.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ds.features.nbytes / 2
    assert load_dataset(tmp_path / "d.bin").features.tobytes() == ds.features.tobytes()


def test_binary_load_holds_the_features_once(tmp_path):
    # The features stay a read-only view of the file's bytes; a copy would
    # hold them twice.
    rng = np.random.default_rng(17)
    ds = Dataset(rng.normal(size=(2000, 64)), np.repeat(np.arange(100), 20))
    save_dataset(ds, tmp_path / "d.bin")
    tracemalloc.start()
    try:
        back = load_dataset(tmp_path / "d.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.features.tobytes() == ds.features.tobytes()
    assert peak < 1.5 * ds.features.nbytes


@pytest.mark.parametrize("names,message", [
    ({0: "a,b", 1: "c"}, "identity 0: name 'a,b' contains ','"),
    ({0: "a", 1: "c\nd"}, "identity 1: name 'c\\nd' contains '\\n'"),
    ({0: "a\rb", 1: "c"}, "identity 0: name 'a\\rb' contains '\\r'"),
    ({0: "x", 1: "x"}, "identities 0 and 1 share the name 'x'"),
    # label 1 is unnamed, and its fallback name is "1" too
    ({0: "1"}, "identities 0 and 1 share the name '1'"),
])
def test_csv_save_rejects_names_it_cannot_read_back(tmp_path, names, message):
    ds = Dataset(np.zeros((4, 2)), [0, 0, 1, 1], names)
    path = tmp_path / "d.csv"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_dataset(ds, path)
    assert not path.exists()
    save_dataset(ds, tmp_path / "d.bin")  # the binary format holds no names


# ---------------------------------------------------------------------------
# CSV conversion in chunks


def reference_save_csv(ds, path, header_comment=None):
    """The row-by-row writer the chunked one replaced."""
    width = len(str(ds.n_identities - 1))
    names = ds.identity_names or {}
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("id,label," + ",".join(f"f{j}" for j in range(ds.dim)) + "\n")
        for i, (label, row) in enumerate(zip(ds.labels.tolist(), ds.features)):
            name = names.get(label, str(label).zfill(width))
            fh.write(f"{i},{name},{','.join(map(repr, row.tolist()))}\n")


def reference_load_csv(path):
    """The line-by-line reader the chunked one replaced: (features, names),
    or the ValueError it raised."""
    rows, names, width = [], [], None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if width is None:
                if fields[:2] != ["id", "label"] or len(fields) < 3:
                    raise ValueError(
                        f"{path}: line {lineno}: expected header 'id,label,f0,...'")
                width = len(fields) - 2
                continue
            if len(fields) != width + 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width + 2} fields, got {len(fields)}")
            try:
                feats = [float(v) for v in fields[2:]]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed feature value") from None
            if not all(map(math.isfinite, feats)):
                raise ValueError(f"{path}: line {lineno}: non-finite feature value")
            rows.append(feats)
            names.append(fields[1])
    if width is None:
        raise ValueError(f"{path}: empty file")
    if not names:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64).reshape(len(names), width), names


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}workers")
def chunked(request, monkeypatch):
    """CSV chunks of 256 bytes, converted by 1, 2 or 3 workers."""
    monkeypatch.setattr(mfid.dataset, "_CSV_CHUNK_BYTES", 256)
    monkeypatch.setattr(mfid.dataset, "_csv_workers", lambda: request.param)
    return request.param


def extreme_dataset():
    values = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-05, -1e-05,
              1e16, -1e16, 1.7e308, -1.7e308, 0.1, 1.0 / 3.0,
              -2.2250738585072014e-308, -1.2345678901234567e-300]
    features = np.tile(values, 4).reshape(-1, 1) * np.ones((1, 3))
    return Dataset(features, np.arange(features.shape[0]) % 4, {0: "b", 1: "a", 3: "zz"})


def random_scale_dataset():
    rng = np.random.default_rng(11)
    return Dataset(rng.normal(size=(50, 16)) * 10.0 ** rng.integers(-8, 8, size=(50, 1)),
                   rng.permutation(np.repeat(np.arange(10), 5)))


def assert_loads_like_reference(path):
    features, names = reference_load_csv(path)
    back = load_dataset(path)
    assert back.features.tobytes() == features.tobytes()
    assert [back.identity_names[label] for label in back.labels.tolist()] == names
    assert sorted(back.identity_names.values()) == sorted(set(names))


@pytest.mark.parametrize("make", [extreme_dataset, random_scale_dataset])
def test_chunked_csv_writes_the_row_by_row_bytes(tmp_path, chunked, make):
    ds = make()
    reference_save_csv(ds, tmp_path / "want.csv", header_comment="mfid test")
    save_dataset(ds, tmp_path / "got.csv", header_comment="mfid test")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    # the rows span many chunks
    assert len(got) > 8 * mfid.dataset._CSV_CHUNK_BYTES


@pytest.mark.parametrize("make", [extreme_dataset, random_scale_dataset])
def test_chunked_csv_reads_the_dataset_back(tmp_path, chunked, make):
    ds = make()
    path = tmp_path / "d.csv"
    save_dataset(ds, path, header_comment="mfid test")
    back = load_dataset(path)
    assert back.features.tobytes() == ds.features.tobytes()
    width = len(str(ds.n_identities - 1))
    names = ds.identity_names or {}
    assert ([back.identity_names[label] for label in back.labels.tolist()]
            == [names.get(label, str(label).zfill(width)) for label in ds.labels.tolist()])
    assert_loads_like_reference(path)


def messy_csv_lines(n_rows=60, dim=4):
    """Header, then data rows with comment, blank and padded lines among them;
    line i of the file is lines[i - 1]."""
    rng = np.random.default_rng(21)
    lines = ["# made by hand", "", "id,label," + ",".join(f"f{j}" for j in range(dim))]
    for i in range(n_rows):
        if i % 7 == 3:
            lines.append("# a comment among the rows")
        if i % 5 == 1:
            lines.append("   ")
        values = ",".join(repr(v) for v in rng.normal(size=dim).tolist())
        lines.append(f"{i},id{i % 6},{values}" + ("  " if i % 9 == 0 else ""))
    return lines


def data_line(lines, after):
    """The number of the first data row line at or after line ``after``."""
    return next(number for number, line in enumerate(lines, start=1)
                if number >= after and line[:1].isdigit())


def load_error(path):
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    return str(info.value)


def reference_error(path):
    with pytest.raises(ValueError) as info:
        reference_load_csv(path)
    return str(info.value)


@pytest.mark.parametrize("damage,message", [
    (lambda line: line.rsplit(",", 1)[0], "expected 6 fields, got 5"),
    (lambda line: line.rsplit(",", 1)[0] + ",oops", "malformed feature value"),
    (lambda line: line.rsplit(",", 1)[0] + ",inf", "non-finite feature value"),
    (lambda line: line.rsplit(",", 1)[0] + ",1e309", "non-finite feature value"),
])
def test_chunked_csv_error_names_the_line_in_a_late_chunk(tmp_path, chunked, damage,
                                                          message):
    lines = messy_csv_lines()
    bad = data_line(lines, len(lines) - 6)
    lines[bad - 1] = damage(lines[bad - 1])
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert path.stat().st_size > 8 * mfid.dataset._CSV_CHUNK_BYTES
    error = load_error(path)
    assert error == reference_error(path) == f"{path}: line {bad}: {message}"


def test_chunked_csv_reports_the_earlier_of_two_bad_chunks(tmp_path, chunked):
    lines = messy_csv_lines()
    early = data_line(lines, 30)
    late = data_line(lines, len(lines) - 3)
    lines[early - 1] = lines[early - 1] + ",nan"
    lines[late - 1] = lines[late - 1].rsplit(",", 1)[0] + ",oops"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    error = load_error(path)
    assert error == reference_error(path) == f"{path}: line {early}: expected 6 fields, got 7"


def join_lines(lines, newline):
    """The file text of ``lines``, each ended by ``newline``, or in turn by LF,
    a lone CR and CRLF when ``newline`` is "mixed"."""
    ends = ("\n", "\r", "\r\n") if newline == "mixed" else (newline,)
    return "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))


@pytest.mark.parametrize("newline", ["\r\n", "\r", "mixed"])
def test_chunked_csv_reads_universal_newlines(tmp_path, chunked, newline):
    lines = messy_csv_lines()
    path = tmp_path / "d.csv"
    path.write_bytes(join_lines(lines, newline).encode("utf-8"))
    assert_loads_like_reference(path)
    # a bad line late in the file keeps its number
    bad = data_line(lines, len(lines) - 4)
    lines[bad - 1] = lines[bad - 1] + ",1.0"
    path.write_bytes(join_lines(lines, newline).encode("utf-8"))
    assert load_error(path) == reference_error(path) == (
        f"{path}: line {bad}: expected 6 fields, got 7")


def test_chunked_csv_reads_names_beyond_ascii(tmp_path, chunked):
    lines = messy_csv_lines()
    lines = [line.replace(",id3,", ",\u00e9t\u00e9\u4e2d,") for line in lines]
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines), encoding="utf-8")  # no final newline
    assert_loads_like_reference(path)
    assert "\u00e9t\u00e9\u4e2d" in load_dataset(path).identity_names.values()


@pytest.mark.parametrize("n_bytes", [1, 255, 256, 511, 512, 700, 4000])
def test_csv_ranges_fold_a_short_tail(tmp_path, monkeypatch, n_bytes):
    monkeypatch.setattr(mfid.dataset, "_CSV_CHUNK_BYTES", 256)
    path = tmp_path / "d.csv"
    path.write_bytes(b"".join(b"x" * 20 + b"\n" for _ in range(n_bytes // 21))
                     + b"y" * (n_bytes % 21))
    ranges = mfid.dataset._csv_ranges(path, 0)
    # contiguous, each ending after a newline or at the end of the file
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == n_bytes
    assert all(path.read_bytes()[hi - 1:hi] == b"\n" for _, hi in ranges[:-1])
    # every range is a chunk or more, so a file under two chunks is one range
    assert len(ranges) == 1 or min(hi - lo for lo, hi in ranges) >= 256
    assert len(ranges) == 1 or n_bytes >= 512
    assert len(ranges) > 1 or n_bytes < 1000


def test_chunked_csv_error_leaves_no_worker_running(tmp_path, chunked):
    lines = messy_csv_lines(n_rows=200)
    bad = data_line(lines, 40)
    lines[bad - 1] = lines[bad - 1] + ",oops"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"line {bad}: expected"):
        load_dataset(path)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# stratified splits


def test_stratified_exact_counts():
    # 10 identities x 10 samples at 0.2 -> exactly 2 test samples each
    ds = synth_gaussian(10, 10, 4, 1.0, 0.1, seed=3)
    for split in stratified_splits(ds, folds=3, test_fraction=0.2, seed=5):
        counts = np.bincount(ds.labels[split.test_indices], minlength=10)
        assert counts.tolist() == [2] * 10
        assert split.mode == STRATIFIED


def test_stratified_deterministic():
    ds = synth_gaussian(6, 8, 3, 1.0, 0.1, seed=0)
    a = stratified_splits(ds, 5, 0.25, seed=42)
    b = stratified_splits(ds, 5, 0.25, seed=42)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.test_indices, y.test_indices)


def test_stratified_fraction_within_one_sample():
    rng = np.random.default_rng(9)
    counts = rng.integers(5, 15, size=20)
    labels = np.repeat(np.arange(20), counts)
    ds = Dataset(rng.normal(size=(labels.size, 3)), labels)
    (split,) = stratified_splits(ds, 1, 0.2, seed=1)
    test_counts = np.bincount(ds.labels[split.test_indices], minlength=20)
    for ident in range(20):
        assert abs(test_counts[ident] - 0.2 * counts[ident]) <= 1.0


def test_stratified_both_sides_nonempty_per_identity():
    ds = synth_gaussian(4, 2, 3, 1.0, 0.1, seed=2)  # 2 samples per id, extreme fractions
    for frac in (0.05, 0.95):
        (split,) = stratified_splits(ds, 1, frac, seed=0)
        for side in (split.train_indices, split.test_indices):
            assert np.unique(ds.labels[side]).size == 4


def reference_stratified_test_side(labels, test_fraction, rng):
    """The per-identity loop stratified splits were drawn with before the
    label-group index: one rng.choice over each identity's rows, in id order."""
    test_parts = []
    for ident in range(labels.max() + 1):
        idx = np.flatnonzero(labels == ident)
        k = int(math.floor(idx.size * test_fraction + 0.5))
        k = min(max(k, 1), idx.size - 1)
        test_parts.append(rng.choice(idx, size=k, replace=False))
    return np.sort(np.concatenate(test_parts))


@pytest.mark.parametrize("test_fraction", [0.05, 0.2, 0.5, 0.95])
def test_stratified_matches_per_identity_loop(test_fraction):
    # Shuffled rows, 2 to 9 per identity: at 0.05 every test side rounds to
    # 0 and is raised to 1; at 0.95 every one rounds to all rows and is cut
    # to all but one.
    rng = np.random.default_rng(17)
    labels = rng.permutation(np.repeat(np.arange(12), rng.integers(2, 10, size=12)))
    ds = Dataset(np.zeros((labels.size, 1)), labels)
    splits = stratified_splits(ds, 3, test_fraction, seed=4)
    for split, stream in zip(splits, np.random.SeedSequence(4).spawn(3)):
        want = reference_stratified_test_side(labels, test_fraction,
                                              np.random.default_rng(stream))
        np.testing.assert_array_equal(split.test_indices, want)
        np.testing.assert_array_equal(split.train_indices,
                                      np.setdiff1d(np.arange(labels.size), want))


def test_stratified_rejects_singleton_identity():
    ds = Dataset(np.zeros((3, 2)), [0, 0, 1])
    with pytest.raises(ValueError, match="identity 1"):
        stratified_splits(ds, 1, 0.5, seed=0)


def test_draw_of_one_row_per_group_matches_per_group_choice():
    # Counts past 2**32 take numpy's 64-bit bounded draw, so the groups are
    # set directly rather than grouped from that many labels.
    meta = np.random.default_rng(23)
    for trial in range(40):
        counts = meta.choice([1, 2, 40, 10_001, 2**32 + 3, 2**33 + 7],
                             size=int(meta.integers(0, 12))).astype(np.int64)
        sizes = meta.integers(0, 2, size=counts.size) * (trial % 4 != 0)
        groups = LabelGroups.__new__(LabelGroups)
        groups.counts = counts
        groups.starts = np.cumsum(counts) - counts
        ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
        want = [start + theirs.choice(count, size=k, replace=False)
                for start, count, k in zip(groups.starts, counts, sizes) if k]
        got = groups.draw(sizes, ours)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.concatenate([np.empty(0, np.int64), *want]))
        assert ours.bit_generator.state == theirs.bit_generator.state


# ---------------------------------------------------------------------------
# identity-disjoint splits


def test_disjoint_split_90_identities():
    ds = synth_gaussian(90, 2, 2, 1.0, 0.0, seed=0)
    split = identity_disjoint_split(ds, 0.2, seed=1)
    assert np.unique(ds.labels[split.test_indices]).size == 18
    assert split.mode == DISJOINT


def test_disjoint_split_rounds_up():
    ds = synth_gaussian(93, 2, 2, 1.0, 0.0, seed=0)
    split = identity_disjoint_split(ds, 0.2, seed=1)
    assert np.unique(ds.labels[split.test_indices]).size == 19  # ceil(18.6)


def test_disjoint_split_no_identity_overlap():
    ds = synth_gaussian(20, 5, 3, 1.0, 0.1, seed=4)
    split = identity_disjoint_split(ds, 0.3, seed=9)
    train_ids = set(ds.labels[split.train_indices].tolist())
    test_ids = set(ds.labels[split.test_indices].tolist())
    assert not train_ids & test_ids
    assert len(train_ids) + len(test_ids) == 20


def test_disjoint_split_deterministic():
    ds = synth_gaussian(15, 3, 3, 1.0, 0.1, seed=4)
    a = identity_disjoint_split(ds, 0.2, seed=77)
    b = identity_disjoint_split(ds, 0.2, seed=77)
    np.testing.assert_array_equal(a.test_indices, b.test_indices)


def test_split_round_trip(tmp_path):
    ds = synth_gaussian(10, 4, 3, 1.0, 0.1, seed=4)
    split = identity_disjoint_split(ds, 0.2, seed=3)
    save_split(split, tmp_path / "fold0")
    back = load_split(tmp_path / "fold0")
    np.testing.assert_array_equal(back.train_indices, split.train_indices)
    np.testing.assert_array_equal(back.test_indices, split.test_indices)
    assert back.mode == split.mode and back.seed == split.seed


SPLIT_HEADER = f"# mode={DISJOINT} seed=5 side=train\n"

# (case, train file text, test file text, what the message names: the train
# file, the test file or the stem, the message after that name)
BAD_SPLIT_FILES = [
    ("empty file", "", SPLIT_HEADER, "train", "missing split header"),
    ("no header", "0\n1\n", SPLIT_HEADER, "train", "missing split header"),
    ("header on line 2", "\n" + SPLIT_HEADER + "0\n", SPLIT_HEADER, "train",
     "missing split header"),
    ("header without seed", f"# mode={DISJOINT} side=train\n0\n", SPLIT_HEADER, "train",
     "header must name mode and seed"),
    ("header without mode", "# seed=5\n0\n", SPLIT_HEADER, "train",
     "header must name mode and seed"),
    ("malformed seed", f"# mode={DISJOINT} seed=x1\n0\n", SPLIT_HEADER, "train",
     "malformed seed 'x1'"),
    ("malformed index", SPLIT_HEADER + "0\n\n1.5\n", SPLIT_HEADER, "train",
     "line 4: malformed index"),
    ("comment after the header", SPLIT_HEADER + "0\n# more\n", SPLIT_HEADER, "train",
     "line 3: malformed index"),
    ("bad test side", SPLIT_HEADER + "0\n", SPLIT_HEADER + "1\r\nx\r\n", "test",
     "line 3: malformed index"),
    ("swapped sides", SPLIT_HEADER.replace("train", "test") + "1\n", SPLIT_HEADER + "0\n",
     "train", "header says side=test"),
    ("test file says side=train", SPLIT_HEADER + "0\n", SPLIT_HEADER + "1\n", "test",
     "header says side=train"),
    ("sides name different splits", SPLIT_HEADER + "0\n",
     f"# mode={STRATIFIED} seed=3 side=test\n1\n", "stem",
     f"train file says mode={DISJOINT} seed=5, test file says mode={STRATIFIED} seed=3"),
]


@pytest.mark.parametrize("train,test,named,message", [case[1:] for case in BAD_SPLIT_FILES],
                         ids=[case[0] for case in BAD_SPLIT_FILES])
def test_bad_split_file_names_the_file_and_line(tmp_path, train, test, named, message):
    stem = tmp_path / "fold"
    files = {side: tmp_path / f"fold.{side}.txt" for side in ("train", "test")}
    files["train"].write_bytes(train.encode("utf-8"))
    files["test"].write_bytes(test.encode("utf-8"))
    with pytest.raises(ValueError) as info:
        load_split(stem)
    assert str(info.value) == f"{files.get(named, stem)}: {message}"


def test_split_header_without_side_loads(tmp_path):
    for side, index in (("train", "0"), ("test", "1")):
        (tmp_path / f"fold.{side}.txt").write_text(f"# mode={STRATIFIED} seed=3\n{index}\n")
    split = load_split(tmp_path / "fold")
    assert split.train_indices.tolist() == [0] and split.test_indices.tolist() == [1]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_split_file_reads_any_line_end_and_skips_blank_lines(tmp_path, newline):
    header = f"# mode={STRATIFIED} seed=3 side="
    lines = {"train": [header + "train", "4", "", "  0 ", " ", "2"],
             "test": [header + "test", "", "3", "1", ""]}
    for side, side_lines in lines.items():
        (tmp_path / f"fold.{side}.txt").write_bytes(newline.join(side_lines).encode())
    split = load_split(tmp_path / "fold", n_samples=5)
    assert split.train_indices.tolist() == [0, 2, 4]
    assert split.test_indices.tolist() == [1, 3]
    assert (split.mode, split.seed) == (STRATIFIED, 3)


@pytest.mark.parametrize("train,message", [
    ([-1, 0, 1], "negative train index -1"),
    ([0, 0, 1], "train index 0 appears more than once"),
])
def test_split_rejects_negative_and_repeated_indices(train, message):
    with pytest.raises(ValueError, match=message):
        Split(train, [2, 3], STRATIFIED, 0)
    with pytest.raises(ValueError, match=message.replace("train", "test")):
        Split([2, 3], train, STRATIFIED, 0)


def test_split_rejects_fractional_train_index():
    # np.int64 casting would have truncated these to [0, 1]
    with pytest.raises(ValueError, match=r"^non-integral train index 0\.7$"):
        Split([0.7, 1.2], [2], STRATIFIED, 0)
    with pytest.raises(ValueError, match="non-integral train index nan"):
        Split([0.0, np.nan], [2], STRATIFIED, 0)


def test_split_rejects_fractional_test_index():
    with pytest.raises(ValueError, match=r"^non-integral test index 2\.9$"):
        Split([0, 1], [2.9], STRATIFIED, 0)
    with pytest.raises(ValueError, match="non-integral test index inf"):
        Split([0, 1], [np.inf], STRATIFIED, 0)
    # integral floats are indices
    split = Split([1.0, 0.0], np.array([2.0]), STRATIFIED, 0)
    assert split.train_indices.tolist() == [0, 1] and split.test_indices.tolist() == [2]


def test_split_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        import mfid

        mfid.Split([0, 1], [1, 2], STRATIFIED, 0)


# ---------------------------------------------------------------------------
# pair constraints


def pair_set(pc, kind):
    """Every pair of ``kind`` as a set of (i, j) tuples, decoded rank by rank."""
    total = pc.n_similar if kind == "similar" else pc.n_dissimilar
    return set(map(tuple, pc.pairs_at(kind, np.arange(total)).tolist()))


def test_pair_constraints_tiny():
    pc = build_pair_constraints(np.array([0, 0, 1]))
    assert pair_set(pc, "similar") == {(0, 1)}
    assert pair_set(pc, "dissimilar") == {(0, 2), (1, 2)}


def test_pair_constraints_single_identity():
    pc = build_pair_constraints(np.zeros(4, dtype=int))
    assert pc.n_similar == 6
    assert pc.n_dissimilar == 0


def test_pair_constraints_total_count():
    rng = np.random.default_rng(21)
    labels = rng.integers(0, 5, size=30)
    pc = build_pair_constraints(labels)
    assert pc.n_similar + pc.n_dissimilar == 30 * 29 // 2


def test_pair_constraints_membership_matches_labels():
    rng = np.random.default_rng(22)
    labels = rng.integers(0, 4, size=12)
    pc = build_pair_constraints(labels)
    for a, b in pair_set(pc, "similar"):
        assert labels[a] == labels[b] and a < b
    for a, b in pair_set(pc, "dissimilar"):
        assert labels[a] != labels[b] and a < b


# ---------------------------------------------------------------------------
# pair batches


def draw_batch(labels, n_pairs, similar_fraction, rng):
    """(pairs, similar mask) of one batch drawn the way ``train`` draws it."""
    pc = build_pair_constraints(labels)
    n_similar, n_dissimilar = pair_batch_counts(pc, n_pairs, similar_fraction)
    return draw_pairs(pc, n_similar, n_dissimilar, rng), np.arange(n_pairs) < n_similar


def test_pair_batch_image_count():
    ds = synth_gaussian(8, 6, 3, 1.0, 0.1, seed=6)
    pairs, sim = draw_batch(ds.labels, 16, 0.5, np.random.default_rng(0))
    assert pairs.shape == (16, 2) and pairs.dtype == np.int64
    assert sim.sum() == 8


def test_pair_batch_all_similar_on_single_identity():
    labels = np.zeros(5, dtype=int)
    pairs, sim = draw_batch(labels, 4, 1.0, np.random.default_rng(1))
    assert sim.all()
    assert np.all(labels[pairs[:, 0]] == labels[pairs[:, 1]])


def test_pair_batch_flags_match_labels():
    ds = synth_gaussian(5, 4, 3, 1.0, 0.1, seed=8)
    rng = np.random.default_rng(3)
    for _ in range(20):
        pairs, sim = draw_batch(ds.labels, 6, 0.5, rng)
        np.testing.assert_array_equal(ds.labels[pairs[:, 0]] == ds.labels[pairs[:, 1]], sim)


def test_pair_batch_empirical_similar_fraction():
    ds = synth_gaussian(10, 8, 3, 1.0, 0.1, seed=9)
    rng = np.random.default_rng(4)
    sims = 0
    draws = 10_000
    for _ in range(draws // 10):
        pairs, _ = draw_batch(ds.labels, 10, 0.5, rng)
        sims += int(np.sum(ds.labels[pairs[:, 0]] == ds.labels[pairs[:, 1]]))
    assert abs(sims / draws - 0.5) <= 0.02


def test_pair_batch_rejects_impossible_composition():
    labels = np.array([0, 1, 2])  # no similar pairs exist
    with pytest.raises(ValueError, match="similar"):
        draw_batch(labels, 2, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("counts,message", [
    ((2, 0), "cannot draw 2 similar pairs: only 1 exist"),
    ((1, 3), "cannot draw 3 dissimilar pairs: only 2 exist"),
])
def test_draw_pairs_names_the_kind_and_counts(counts, message):
    pc = build_pair_constraints([0, 0, 1])
    with pytest.raises(ValueError, match=f"^{message}$"):
        draw_pairs(pc, *counts, np.random.default_rng(0))


def test_draw_pairs_of_nothing_is_empty():
    pc = build_pair_constraints([0, 0, 1])
    rng = np.random.default_rng(0)
    pairs = draw_pairs(pc, 0, 0, rng)
    assert pairs.shape == (0, 2) and pairs.dtype == np.int64
    assert rng.random() == np.random.default_rng(0).random()  # nothing was drawn


@pytest.mark.parametrize("similar_fraction", [0.0, 0.4, 1.0])
def test_batched_draw_equals_single_batch_draws(similar_fraction):
    labels = np.random.default_rng(7).integers(0, 5, size=40)
    pc = build_pair_constraints(labels)
    n_similar, n_dissimilar = pair_batch_counts(pc, 5, similar_fraction)
    assert (n_similar, n_dissimilar) == {0.0: (0, 5), 0.4: (2, 3), 1.0: (5, 0)}[similar_fraction]
    ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
    stacked = draw_pairs(pc, n_similar, n_dissimilar, ours, batches=7)
    singles = [draw_pairs(pc, n_similar, n_dissimilar, theirs) for _ in range(7)]
    assert stacked.shape == (35, 2) and stacked.dtype == np.int64
    np.testing.assert_array_equal(stacked, np.concatenate(singles))
    assert ours.random() == theirs.random()  # the same stream was consumed


@pytest.mark.parametrize("counts,message", [
    ((2, 0), "cannot draw 2 similar pairs: only 1 exist"),
    ((1, 3), "cannot draw 3 dissimilar pairs: only 2 exist"),
    ((-1, 1), "negative similar pair count -1"),
    ((1, -2), "negative dissimilar pair count -2"),
])
def test_batched_draw_names_the_kind_and_counts(counts, message):
    pc = build_pair_constraints([0, 0, 1])
    with pytest.raises(ValueError, match=f"^{message}$"):
        draw_pairs(pc, *counts, np.random.default_rng(0), batches=4)


def test_batched_draw_of_nothing_is_empty_and_needs_a_batch():
    pc = build_pair_constraints([0, 0, 1])
    rng = np.random.default_rng(0)
    assert draw_pairs(pc, 0, 0, rng, batches=3).shape == (0, 2)
    assert rng.random() == np.random.default_rng(0).random()
    with pytest.raises(ValueError, match="^batches must be at least 1, got 0$"):
        draw_pairs(pc, 1, 1, rng, batches=0)


def test_train_keeps_the_dissimilar_batch_count_message():
    ds = synth_gaussian(3, 2, 4, 1.0, 0.3, seed=1)
    split = Split(np.arange(ds.n_samples), np.empty(0, dtype=np.int64), STRATIFIED, 0)
    with pytest.raises(ValueError,
                       match="^batch needs 14 dissimilar pairs but only 12 exist$"):
        train(ds, split, TrainConfig(epochs=1, batch_pairs=14, similar_fraction=0.0))


# ---------------------------------------------------------------------------
# rank decoding against the exhaustive pair arrays it replaced


class ReferencePairConstraints:
    """Every pair stored as an int64 row, in row-major order."""

    def __init__(self, similar, dissimilar, n_labels):
        self.arrays = {"similar": similar, "dissimilar": dissimilar}
        self.n_labels = n_labels
        self.n_similar = similar.shape[0]
        self.n_dissimilar = dissimilar.shape[0]

    def draw(self, kind, count, rng):
        pairs = self.arrays[kind]
        return pairs[rng.choice(pairs.shape[0], size=count, replace=False)]

    def pairs_at(self, kind, ranks):
        return self.arrays[kind][ranks]


def reference_pair_constraints(labels):
    """All n(n-1)/2 unordered index pairs, partitioned by label equality."""
    labels = np.asarray(labels)
    i_upper, j_upper = np.triu_indices(labels.size, k=1)
    same = labels[i_upper] == labels[j_upper]
    similar = np.column_stack([i_upper[same], j_upper[same]])
    dissimilar = np.column_stack([i_upper[~same], j_upper[~same]])
    return ReferencePairConstraints(similar, dissimilar, labels.size)


LABEL_CASES = {
    "one-identity": np.zeros(7, dtype=int),
    "all-distinct": np.random.default_rng(40).permutation(9),
    "n=1": np.array([3]),
    "n=2-same": np.array([5, 5]),
    "n=2-different": np.array([5, 2]),
}


@pytest.mark.parametrize("name", sorted(LABEL_CASES))
def test_pair_ranks_decode_to_reference(name):
    labels = LABEL_CASES[name]
    pc = build_pair_constraints(labels)
    ref = reference_pair_constraints(labels)
    for kind in ("similar", "dissimilar"):
        total = ref.arrays[kind].shape[0]
        assert (pc.n_similar, pc.n_dissimilar)[kind == "dissimilar"] == total
        decoded = pc.pairs_at(kind, np.arange(total))
        assert decoded.dtype == np.int64 and decoded.shape == (total, 2)
        np.testing.assert_array_equal(decoded, ref.arrays[kind])


@pytest.mark.parametrize("name", sorted(LABEL_CASES))
def test_pair_frozensets_match_reference(name):
    labels = LABEL_CASES[name]
    pc = build_pair_constraints(labels)
    ref = reference_pair_constraints(labels)
    for kind in ("similar", "dissimilar"):
        assert pair_set(pc, kind) == set(map(tuple, ref.arrays[kind].tolist()))


def test_pair_ranks_decode_random_label_sequences():
    rng = np.random.default_rng(41)
    for _ in range(200):
        # unsorted, sparse and negative label values
        values = rng.choice([-4, 0, 1, 7, 30, 31, 99], size=int(rng.integers(1, 8)),
                            replace=False)
        labels = rng.choice(values, size=int(rng.integers(1, 40)))
        pc = build_pair_constraints(labels)
        ref = reference_pair_constraints(labels)
        for kind in ("similar", "dissimilar"):
            decoded = pc.pairs_at(kind, np.arange(ref.arrays[kind].shape[0]))
            np.testing.assert_array_equal(decoded, ref.arrays[kind])


@pytest.mark.parametrize("seed", range(3))
def test_pair_draw_matches_reference_stream(seed):
    labels = np.random.default_rng(seed).integers(0, 6, size=80)
    pc = build_pair_constraints(labels)
    ref = reference_pair_constraints(labels)
    ours, theirs = np.random.default_rng(seed + 9), np.random.default_rng(seed + 9)
    for count in (1, 5, 16, 40):
        np.testing.assert_array_equal(draw_pairs(pc, count, 0, ours),
                                      ref.draw("similar", count, theirs))
        np.testing.assert_array_equal(draw_pairs(pc, 0, count, ours),
                                      ref.draw("dissimilar", count, theirs))
    assert ours.random() == theirs.random()


def test_pair_ranks_reject_out_of_range_and_unknown_kind():
    pc = build_pair_constraints([0, 0, 1])
    with pytest.raises(ValueError, match="out of range"):
        pc.pairs_at("similar", [1])
    with pytest.raises(ValueError, match="out of range"):
        pc.pairs_at("dissimilar", [-1])
    with pytest.raises(ValueError, match="kind"):
        pc.pairs_at("both", [0])


def test_pair_constraints_reject_empty_labels():
    with pytest.raises(ValueError, match="nonempty"):
        build_pair_constraints([])


@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_train_bit_identical_with_reference_constraints(monkeypatch, architecture):
    ds = synth_gaussian(9, 6, 5, 1.0, 0.6, seed=3)
    (split,) = stratified_splits(ds, 1, 0.3, seed=2)
    cfg = TrainConfig(epochs=3, batch_pairs=6, initial_lr=0.05, seed=4,
                      architecture=architecture, embed_dim=7, similar_fraction=0.4)
    ours = train(ds, split, cfg)
    monkeypatch.setattr(mfid.model, "build_pair_constraints", reference_pair_constraints)
    theirs = train(ds, split, cfg)
    assert ours.loss_history == theirs.loss_history
    for name in ours.head.params:
        assert ours.head.params[name].tobytes() == theirs.head.params[name].tobytes()


def test_train_gathers_each_pair_into_adjacent_rows(monkeypatch):
    ds = synth_gaussian(6, 5, 4, 1.0, 0.5, seed=5)
    (split,) = stratified_splits(ds, 1, 0.3, seed=1)
    seen = []
    real_step = mfid.model._adjacent_backprop

    def recording_step(head, x, labels, layout, loss_cfg):
        kinds = np.arange(layout.n_similar + layout.n_dissimilar) < layout.n_similar
        seen.append((np.asarray(labels), kinds))
        return real_step(head, x, labels, layout, loss_cfg)

    monkeypatch.setattr(mfid.model, "_adjacent_backprop", recording_step)
    train(ds, split, TrainConfig(epochs=2, batch_pairs=4, seed=2, embed_dim=3))
    assert seen
    for labels, sim in seen:
        # pair k is rows 2k and 2k + 1
        assert labels.size == 2 * sim.size == 8
        a = np.arange(0, 8, 2)
        b = a + 1
        np.testing.assert_array_equal(labels[a] == labels[b], sim)


def test_pair_sampling_bounded_memory_at_50k_rows():
    # 1250 identities x 40: ~1.25e9 pairs, which the exhaustive arrays
    # would hold in ~20 GB.
    per_id, n_ids = 40, 1250
    labels = np.random.default_rng(5).permutation(np.repeat(np.arange(n_ids), per_id))
    ds = Dataset(np.zeros((labels.size, 1)), labels)
    rng = np.random.default_rng(6)
    tracemalloc.start()
    try:
        pc = build_pair_constraints(ds.labels)
        batches = [draw_pairs(pc, 8, 8, rng) for _ in range(100)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_similar = n_ids * math.comb(per_id, 2)
    assert pc.n_similar == n_similar
    assert pc.n_dissimilar == math.comb(labels.size, 2) - n_similar
    assert peak < 16 * 2 ** 20
    sim = np.arange(16) < 8
    for pairs in batches:
        a, b = pairs.T
        assert np.all(a < b)
        np.testing.assert_array_equal(ds.labels[a] == ds.labels[b], sim)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_shapes_and_counts():
    ds = synth_gaussian(20, 50, 64, 1.0, 0.3, seed=5)
    assert ds.n_samples == 1000
    assert ds.dim == 64
    assert ds.n_identities == 20


def test_synth_zero_noise_collapses_clusters():
    ds = synth_gaussian(4, 5, 6, 1.0, 0.0, seed=5)
    for ident in range(4):
        rows = ds.features[ds.labels == ident]
        assert np.ptp(rows, axis=0).max() == 0.0


def test_synth_cluster_means_near_centers():
    # CLT bound: per-coordinate sample mean within 4*sigma/sqrt(m) of center
    k, m, dim, sigma = 6, 200, 8, 0.5
    ds = synth_gaussian(k, m, dim, 1.0, sigma, seed=10)
    centers = np.random.default_rng(10).uniform(-1.0, 1.0, size=(k, dim))
    for ident in range(k):
        mean = ds.features[ds.labels == ident].mean(axis=0)
        assert np.all(np.abs(mean - centers[ident]) < 4 * sigma / math.sqrt(m))


def test_synth_deterministic():
    a = synth_gaussian(5, 4, 3, 1.0, 0.2, seed=123)
    b = synth_gaussian(5, 4, 3, 1.0, 0.2, seed=123)
    np.testing.assert_array_equal(a.features, b.features)


def test_synth_rejects_negative_sigma():
    with pytest.raises(ValueError, match="noise_sigma"):
        synth_gaussian(2, 2, 2, 1.0, -0.1, seed=0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_synth_rejects_non_finite_scale(value):
    with pytest.raises(ValueError, match=f"^noise_sigma must be finite, got {value}$"):
        synth_gaussian(2, 2, 2, 1.0, value, seed=0)
    with pytest.raises(ValueError, match=f"^center_scale must be finite, got {value}$"):
        synth_gaussian(2, 2, 2, value, 0.1, seed=0)
