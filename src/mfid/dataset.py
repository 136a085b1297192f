"""Feature datasets, reproducible splits, pair constraints, and pair sampling.

A dataset is an ``(n, d)`` float64 feature matrix plus one identity label per
row.  Labels are always relabeled to dense integer ids ``0..K-1`` at load
time (in sorted order of the original label strings); the original strings
are kept in ``identity_names``.

Two file formats are supported; the file suffix chooses one:

* CSV with header ``id,label,f0,...,f{d-1}``; feature values are written
  with full round-trip precision.  Text is written in chunks of about 1 MiB,
  and read in ranges of at least 1 MiB (a file under 2 MiB is one), each
  converted in a forked worker, one per CPU the process may use
  (:func:`_map_indexed`); the bytes written and the dataset read do not
  depend on how many.  A name that holds a comma or a line break, or that
  two identities share, is rejected before writing.
* A binary container (``.bin`` or ``.mfid``): magic ``MFID``, version u32,
  ``n`` u64, ``d`` u64, row-major little-endian float64 features, then u32
  label ids.

Every text input is split into lines (at LF, CRLF or a lone CR) by
:func:`_range_lines`, and dataset CSVs and box files (:mod:`mfid.detection`)
are parsed by :func:`_parse_csv_range`, which checks the rows of a range as
one array and names the first bad line.

Rows are grouped by identity in one place, :class:`LabelGroups` (the stable
label order, and each group's label, start and count in it), which the
splits, the baseline's holdout, the pair constraints and the evaluation
protocols all share.  Its ``draw`` makes the draws of one ``rng.choice``
per group: one ``rng.integers`` call when each group gives one row, else one
``rng.choice`` call per group.
"""

from __future__ import annotations

import io
import math
import mmap
import os
import struct
from array import array
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BINARY_MAGIC = b"MFID"
BINARY_VERSION = 1
BINARY_SUFFIXES = (".bin", ".mfid")

STRATIFIED = "stratified-by-sample"
DISJOINT = "disjoint-by-identity"

# CSV text is converted in chunks of about this many bytes, across the CPUs
# the process may use.  A file of less than two is read in the process.
_CSV_CHUNK_BYTES = 1 << 20
# The longest repr of a float64, e.g. -2.2250738585072014e-308.
_REPR_WIDTH = 24


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with dense integer identity labels.

    Args:
        features: (n, d) array, coerced to float64.  Must be finite.
        labels: (n,) integer ids, dense in [0, K).
        identity_names: optional map from dense id to the original label
            string.  Loaders always fill this in.
    """

    features: np.ndarray
    labels: np.ndarray
    identity_names: dict[int, str] | None = None

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        n, d = features.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one sample and one feature, got {n}x{d}")
        if labels.ndim != 1 or labels.shape[0] != n:
            raise ValueError(f"expected {n} labels, got array of shape {labels.shape}")
        bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
        if bad.size:
            raise ValueError(f"non-finite feature value in sample {int(bad[0])}")
        # A label of n or more cannot be dense, and would size the bincount.
        if labels.min() < 0 or labels.max() >= n or not np.bincount(labels).all():
            raise ValueError("identity ids must be dense integers in [0, K)")
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_identities(self) -> int:
        return int(self.labels.max()) + 1


def _finite(values, name: str) -> np.ndarray:
    """``values`` as float64; a NaN or infinity is an error that names the
    argument they came in as, ``name``, and the first bad index (of a row,
    in a 2-D array)."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if finite.ndim == 2:
        finite = finite.all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite {name} at index {int(np.argmin(finite))}")
    return values


def dense_relabel(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary integer labels onto 0..K-1 (sorted order of originals).

    Returns:
        (dense_labels, original_ids) where original_ids[k] is the source id
        that became dense id k.
    """
    originals, dense = np.unique(labels, return_inverse=True)
    return dense, originals


def _zero_padded_names(values) -> dict[int, str]:
    width = max(len(str(int(v))) for v in values)
    return {i: str(int(v)).zfill(width) for i, v in enumerate(values)}


def _labels_from_names(names: list[str]) -> tuple[np.ndarray, dict[int, str]]:
    order = sorted(set(names))
    mapping = {name: i for i, name in enumerate(order)}
    labels = np.array([mapping[name] for name in names], dtype=np.int64)
    return labels, dict(enumerate(order))


# ---------------------------------------------------------------------------
# forked workers


# The work of the running _map_indexed call.  Forked workers inherit it with
# the data its closure holds, so only indices and results are pickled.
_FORKED_WORK = None


def _run_forked(i: int):
    return _FORKED_WORK(i)


def _map_indexed(work, count: int, jobs: int):
    """Yield ``work(i)`` for i in range(count), in order, computed in up to
    ``jobs`` forked processes (in this one when ``jobs`` or ``count`` is 1).

    Close the generator when leaving it early: that cancels the work not yet
    started and waits for the workers to exit.
    """
    if jobs <= 1 or count <= 1:
        yield from map(work, range(count))
        return
    # Imported here, not at module top, where it adds RSS and start-up time
    # to every command.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _FORKED_WORK
    previous, _FORKED_WORK = _FORKED_WORK, work
    try:
        with ProcessPoolExecutor(min(jobs, count),
                                 multiprocessing.get_context("fork")) as pool:
            yield from pool.map(_run_forked, range(count))
    finally:
        _FORKED_WORK = previous


def _csv_workers() -> int:
    """The number of CPUs this process may run on, the CSV worker count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# ---------------------------------------------------------------------------
# file formats


def load_dataset(path) -> Dataset:
    """Load a dataset from ``path`` in the format its suffix gives."""
    path = Path(path)
    return _load_binary(path) if path.suffix in BINARY_SUFFIXES else _load_csv(path)


def save_dataset(ds: Dataset, path, header_comment: str | None = None) -> None:
    """Write ``ds`` to ``path`` in the format its suffix gives.

    ``header_comment`` (without the leading ``#``) is prepended to CSV output
    as a comment line; binary output ignores it.
    """
    path = Path(path)
    if path.suffix in BINARY_SUFFIXES:
        _save_binary(ds, path)
    else:
        _save_csv(ds, path, header_comment)


def _csv_names(ds: Dataset) -> list[str]:
    """Each label's name as its CSV rows spell it: the identity name, else the
    zero-padded id.  A name that the loader would not read back as that one
    identity is rejected."""
    width = len(str(ds.n_identities - 1))
    named = ds.identity_names or {}
    names = [named.get(label, str(label).zfill(width)) for label in range(ds.n_identities)]
    first = {}
    for label, name in enumerate(names):
        for mark in (",", "\n", "\r"):
            if mark in name:
                raise ValueError(f"identity {label}: name {name!r} contains {mark!r}, "
                                 "which a CSV row cannot hold")
        if name in first:
            raise ValueError(f"identities {first[name]} and {label} share the name "
                             f"{name!r}, so a CSV file would merge them")
        first[name] = label
    return names


def _save_csv(ds: Dataset, path: Path, header_comment: str | None) -> None:
    names = _csv_names(ds)
    # Rows per chunk, sized so that a chunk of the widest values fills it.
    rows = max(1, _CSV_CHUNK_BYTES // (ds.dim * (_REPR_WIDTH + 1)))

    def chunk_text(c: int) -> str:
        lo = c * rows
        block = ds.features[lo:lo + rows].tolist()
        labels = ds.labels[lo:lo + rows].tolist()
        return "".join(f"{i},{names[label]},{','.join(map(repr, row))}\n"
                       for i, label, row in zip(range(lo, lo + len(block)), labels, block))

    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("id,label," + ",".join(f"f{j}" for j in range(ds.dim)) + "\n")
        # In order as they arrive, so only a few chunks are held at once.
        with closing(_map_indexed(chunk_text, -(-ds.n_samples // rows),
                                  _csv_workers())) as chunks:
            for text in chunks:
                fh.write(text)


def _csv_ranges(path: Path, start: int) -> list[tuple[int, int]]:
    """Byte ranges that cover ``path`` from ``start``, each of at least
    ``_CSV_CHUNK_BYTES`` unless it is the only one: a tail shorter than that
    joins the range before it.  Each ends just after a newline byte or at the
    end of the file, so no line, UTF-8 sequence or CRLF pair straddles two."""
    size = path.stat().st_size
    bounds = [start]
    if size - start > _CSV_CHUNK_BYTES:
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            while size - bounds[-1] > _CSV_CHUNK_BYTES:
                newline = mm.find(b"\n", bounds[-1] + _CSV_CHUNK_BYTES - 1)
                if newline < 0:
                    break
                bounds.append(newline + 1)
    if len(bounds) > 1 and size - bounds[-1] < _CSV_CHUNK_BYTES:
        bounds.pop()
    return list(zip(bounds, bounds[1:] + [size])) if start < size else []


def _range_lines(path: Path, lo: int, hi: int):
    """The lines in bytes ``lo:hi`` of ``path``, which begin and end on line
    boundaries, read with universal newlines (LF, CRLF or a lone CR) and
    their line ends kept.  Every text file is split into lines here."""
    with open(path, "rb") as raw:
        raw.seek(lo)
        # newline="" ends lines as newline=None does but keeps their bytes, so
        # the lines' lengths in UTF-8 (O(1) for ASCII) add up to the range.
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
            if hi >= os.fstat(raw.fileno()).st_size:
                yield from fh
                return
            left = hi - lo
            for line in fh:
                yield line
                left -= len(line) if line.isascii() else len(line.encode("utf-8"))
                if left <= 0:
                    return


def _parse_csv_range(path: Path, lo: int, hi: int, n_fields: int, name_at: int,
                     values_at: int, malformed: str, check, header: str | None = None):
    """Parse the rows in bytes ``lo:hi`` of ``path``: stripped lines of
    ``n_fields`` comma-separated fields, named by field ``name_at``, with
    float values from field ``values_at`` on (else the error ``malformed``).
    Blank and ``#`` lines and a line whose first field is ``header`` are
    skipped.  ``check(names, values)`` gets the rows as one array and gives
    None or the first bad row and its error, which precedes a parse error.

    Returns (float64 values as bytes, names, lines read, error): error is
    None, or the message for the first bad line, the last line read.
    """
    # One flat array of float64 values, not a Python float per value, and
    # one str per distinct name, which pickling sends once.
    values, names, distinct, lines, error = array("d"), [], {}, [], None
    for lineno, raw in enumerate(_range_lines(path, lo, hi), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if fields[0] == header:
            continue
        if len(fields) != n_fields:
            error = f"expected {n_fields} fields, got {len(fields)}"
            break
        try:
            values.fromlist(list(map(float, fields[values_at:])))
        except ValueError:
            error = malformed
            break
        names.append(distinct.setdefault(fields[name_at], fields[name_at]))
        lines.append(lineno)
    bad = check(names, np.frombuffer(values).reshape(len(names), n_fields - values_at))
    if bad is not None:
        return None, None, lines[bad[0]], bad[1]
    if error is not None:
        return None, None, lineno, error
    # As bytes, which unpickle without the copy an array makes.
    return values.tobytes(), names, lineno, None


def _read_rows(path: Path, offset: int, lineno: int, **layout) -> tuple[list, np.ndarray]:
    """The names and the ``(rows, values)`` array of the rows of ``path`` after
    byte ``offset`` (line ``lineno``), parsed by :func:`_parse_csv_range` with ``layout``."""
    ranges = _csv_ranges(path, offset)
    values, names = bytearray(), []
    with closing(_map_indexed(lambda c: _parse_csv_range(path, *ranges[c], **layout),
                              len(ranges), _csv_workers())) as chunks:
        for chunk_values, chunk_names, n_lines, error in chunks:
            lineno += n_lines
            if error is not None:
                raise ValueError(f"{path}: line {lineno}: {error}")
            values += chunk_values
            names += chunk_names
            del chunk_values  # not held while the next chunk arrives
    width = layout["n_fields"] - layout["values_at"]
    return names, np.frombuffer(values, dtype=np.float64).reshape(len(names), width)


def _nonfinite_problem(names: list, values: np.ndarray) -> tuple[int, str] | None:
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    return (int(bad[0]), "non-finite feature value") if bad.size else None


def _load_csv(path: Path) -> Dataset:
    # The header is the first line that is neither blank nor a comment.
    offset = 0
    for lineno, raw in enumerate(_range_lines(path, 0, path.stat().st_size), start=1):
        offset += len(raw.encode("utf-8"))
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise ValueError(f"{path}: empty file")
    fields = line.split(",")
    if fields[:2] != ["id", "label"] or len(fields) < 3:
        raise ValueError(f"{path}: line {lineno}: expected header 'id,label,f0,...'")
    names, features = _read_rows(path, offset, lineno, n_fields=len(fields), name_at=1,
                                 values_at=2, malformed="malformed feature value",
                                 check=_nonfinite_problem)
    if not names:
        raise ValueError(f"{path}: no data rows")
    return Dataset(features, *_labels_from_names(names))


def _save_binary(ds: Dataset, path: Path) -> None:
    if int(ds.labels.max()) >= 2 ** 32:
        raise ValueError("labels do not fit in u32")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<I", BINARY_VERSION))
        fh.write(struct.pack("<QQ", ds.n_samples, ds.dim))
        # The features' own buffer: a float64 Dataset is already <f8 on a
        # little-endian machine, so nothing is copied.
        fh.write(np.ascontiguousarray(ds.features, dtype="<f8"))
        fh.write(ds.labels.astype("<u4"))


def _container_header(path, blob: bytes, magic: bytes, version: int,
                      fields: str) -> tuple[int, tuple]:
    """(size, fields) of a header of ``magic``, u32 ``version`` and little-endian
    struct codes ``fields``; a short blob, another magic or version is an error."""
    layout = f"<4sI{fields}"
    size = struct.calcsize(layout)
    if len(blob) < size:
        raise ValueError(f"{path}: truncated header")
    found_magic, found_version, *values = struct.unpack_from(layout, blob)
    if found_magic != magic:
        raise ValueError(f"{path}: bad magic {found_magic!r}")
    if found_version != version:
        raise ValueError(f"{path}: unsupported version {found_version}")
    return size, tuple(values)


def _load_binary(path: Path) -> Dataset:
    blob = Path(path).read_bytes()
    header, (n, d) = _container_header(path, blob, BINARY_MAGIC, BINARY_VERSION, "QQ")
    expected = header + n * d * 8 + n * 4
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(blob)}")
    # A read-only view of the file's bytes, which Dataset keeps as it is.
    features = np.frombuffer(blob, dtype="<f8", count=n * d, offset=header).reshape(n, d)
    raw = np.frombuffer(blob, dtype="<u4", count=n, offset=header + n * d * 8)
    labels, originals = dense_relabel(raw.astype(np.int64))
    return Dataset(features, labels, _zero_padded_names(originals))


# ---------------------------------------------------------------------------
# identity groups


class LabelGroups:
    """The rows of a label sequence grouped by label.

    ``order`` is the stable argsort of ``labels``, so each label's rows form
    one run of it, in row order.  Group g has label ``ids[g]`` (ascending)
    and occupies ``order[starts[g]:starts[g] + counts[g]]``.
    """

    def __init__(self, labels):
        self.labels = np.asarray(labels)
        self.order = np.argsort(self.labels, kind="stable")
        self.ids, self.starts, self.counts = np.unique(
            self.labels[self.order], return_index=True, return_counts=True)

    def draw(self, sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Positions in ``order`` of ``sizes[g]`` distinct rows of each group g,
        from one ``rng.choice(counts[g], size=sizes[g], replace=False)`` per
        group with a positive size, in group order: the stream and rows of one
        ``rng.choice(rows, ...)`` over each group's rows in row order.

        When every drawn group takes one row, one ``rng.integers(0, counts)``
        call over the drawn groups gives the same rows and leaves the
        generator in the same state: a one-row ``choice`` without replacement
        is one bounded draw in ``[0, count)`` (the shuffle of one element
        draws nothing), and ``integers`` makes the same bounded draws, group
        by group.  Larger sizes shuffle with rejection sampling, so they keep
        the loop."""
        picked = np.flatnonzero(sizes)
        if np.all(sizes[picked] == 1):
            return self.starts[picked] + rng.integers(0, self.counts[picked])
        parts = [start + rng.choice(count, size=k, replace=False)
                 for start, count, k in zip(self.starts.tolist(), self.counts.tolist(),
                                            sizes.tolist()) if k > 0]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# splits


def _sorted_indices(indices, side: str) -> np.ndarray:
    """Sorted int64 copy of one side's indices; a fractional or non-finite
    index is an error, not truncated."""
    raw = np.asarray(indices)
    if raw.dtype.kind == "f":
        bad = raw[~(np.isfinite(raw) & (raw == np.floor(raw)))]
        if bad.size:
            raise ValueError(f"non-integral {side} index {bad[0].item()!r}")
    return np.sort(raw.astype(np.int64))


@dataclass(frozen=True)
class Split:
    """Disjoint train/test index sets plus the provenance (mode, seed)."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    mode: str
    seed: int

    def __post_init__(self) -> None:
        train = _sorted_indices(self.train_indices, "train")
        test = _sorted_indices(self.test_indices, "test")
        if self.mode not in (STRATIFIED, DISJOINT):
            raise ValueError(f"unknown split mode {self.mode!r}")
        if train.size == 0:
            raise ValueError("split has an empty training side")
        for side, indices in (("train", train), ("test", test)):
            if indices.size and indices[0] < 0:
                raise ValueError(f"negative {side} index {int(indices[0])}")
            repeated = indices[1:][indices[1:] == indices[:-1]]
            if repeated.size:
                raise ValueError(f"{side} index {int(repeated[0])} appears more than once")
        if np.intersect1d(train, test, assume_unique=True).size:
            raise ValueError("train and test indices overlap")
        object.__setattr__(self, "train_indices", train)
        object.__setattr__(self, "test_indices", test)


def stratified_splits(ds: Dataset, folds: int, test_fraction: float,
                      seed: int) -> list[Split]:
    """Per-identity stratified splits: every identity appears on both sides.

    Args:
        folds: number of splits to produce, each drawn on its own (so their
            test sides may overlap).
        test_fraction: per-identity held-out fraction (rounded to the nearest
            sample, clamped so both sides stay nonempty).
    """
    if folds < 1:
        raise ValueError("folds must be at least 1")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    groups = LabelGroups(ds.labels)
    lonely = groups.ids[groups.counts < 2]
    if lonely.size:
        raise ValueError(
            f"identity {int(lonely[0])} has a single sample and cannot be stratified")
    sizes = np.clip(np.floor(groups.counts * test_fraction + 0.5).astype(np.int64),
                    1, groups.counts - 1)
    splits = []
    for stream in np.random.SeedSequence(seed).spawn(folds):
        test = groups.order[groups.draw(sizes, np.random.default_rng(stream))]
        train = np.setdiff1d(np.arange(ds.n_samples), test, assume_unique=True)
        splits.append(Split(train, test, STRATIFIED, seed))
    return splits


def identity_disjoint_split(ds: Dataset, identity_test_fraction: float, seed: int) -> Split:
    """Hold out whole identities: ceil(K * fraction) ids go to the test side."""
    k = ds.n_identities
    if k < 2:
        raise ValueError("identity-disjoint split needs at least two identities")
    if not 0.0 < identity_test_fraction < 1.0:
        raise ValueError(
            f"identity_test_fraction must be in (0, 1), got {identity_test_fraction}")
    # The 1e-9 guard keeps ceil() at the intended integer when the product
    # lands a few ulps above it (e.g. 90 * 0.2).
    n_test_ids = math.ceil(k * identity_test_fraction - 1e-9)
    if n_test_ids >= k:
        raise ValueError(
            f"test fraction {identity_test_fraction} leaves no training identities (K={k})")
    rng = np.random.default_rng(seed)
    test_ids = rng.permutation(k)[:n_test_ids]
    mask = np.isin(ds.labels, test_ids)
    return Split(np.flatnonzero(~mask), np.flatnonzero(mask), DISJOINT, seed)


def save_split(split: Split, stem) -> tuple[Path, Path]:
    """Write ``<stem>.train.txt`` / ``<stem>.test.txt``, one index per line."""
    stem = Path(stem)
    paths = []
    for side, indices in (("train", split.train_indices), ("test", split.test_indices)):
        path = stem.with_name(stem.name + f".{side}.txt")
        lines = [f"# mode={split.mode} seed={split.seed} side={side}"]
        lines.extend(str(int(i)) for i in indices)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths[0], paths[1]


def load_split(stem, n_samples: int | None = None) -> Split:
    """Load a split written by :func:`save_split` from its two side files,
    whose ``# mode=... seed=...`` first lines must agree.  A ``side=`` in a
    header must name the file's own side.

    With ``n_samples``, an index that does not address one of that many rows
    is rejected.  Every error names the file or ``stem``.
    """
    stem = Path(stem)
    sides, headers, named = {}, {}, {}
    for side in ("train", "test"):
        path = stem.with_name(stem.name + f".{side}.txt")
        with closing(_range_lines(path, 0, path.stat().st_size)) as lines:
            if not (first := next(lines, "")).startswith("#"):
                raise ValueError(f"{path}: missing split header")
            header = dict(item.split("=", 1) for item in first[1:].split() if "=" in item)
            if "mode" not in header or "seed" not in header:
                raise ValueError(f"{path}: header must name mode and seed")
            try:
                headers[side] = header["mode"], int(header["seed"])
            except ValueError:
                raise ValueError(f"{path}: malformed seed {header['seed']!r}") from None
            named[side] = path, header.get("side", side)
            indices = []
            for lineno, line in enumerate(lines, start=2):
                if line.strip():
                    try:
                        indices.append(int(line))
                    except ValueError:
                        raise ValueError(f"{path}: line {lineno}: malformed index") from None
        sides[side] = np.array(indices, dtype=np.int64)
    if headers["train"] != headers["test"]:
        raise ValueError(f"{stem}: " + ", ".join(f"{side} file says mode={m} seed={s}"
                                                 for side, (m, s) in headers.items()))
    for side, (path, says) in named.items():
        if says != side:
            raise ValueError(f"{path}: header says side={says}")
    try:
        split = Split(sides["train"], sides["test"], *headers["train"])
    except ValueError as exc:
        raise ValueError(f"{stem}: {exc}") from None
    last = max(int(split.train_indices[-1]), int(split.test_indices.max(initial=-1)))
    if n_samples is not None and last >= n_samples:
        raise ValueError(f"{stem}: index {last} out of range for {n_samples} samples")
    return split


# ---------------------------------------------------------------------------
# pair constraints and pair sampling


class PairConstraints:
    """Similar/dissimilar unordered index pairs over a label sequence, by rank.

    The pairs are all (i, j) with i < j; a pair is similar iff the two labels
    are equal.  Each kind is listed in row-major order (by i, then j).  The
    n(n-1)/2 pairs are never stored: :meth:`pairs_at` decodes a rank in a list
    straight into (i, j) from an O(n) label index.
    """

    def __init__(self, labels):
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-D sequence")
        n = labels.size
        # Every label's rows form one run of slots, in row order.
        groups = LabelGroups(labels)
        order = groups.order
        group = np.repeat(np.arange(groups.ids.size), groups.counts)
        member = np.arange(n) - groups.starts[group]
        slot = np.empty(n, dtype=np.int64)
        slot[order] = np.arange(n)
        same_after = np.empty(n, dtype=np.int64)
        same_after[order] = groups.counts[group] - 1 - member
        other_after = (n - 1 - np.arange(n)) - same_after
        self._order = order
        self._slot = slot
        # Rank offsets: row i's pairs of a kind start at rank offsets[i].
        self._offsets = {
            "similar": np.concatenate([[0], np.cumsum(same_after)]),
            "dissimilar": np.concatenate([[0], np.cumsum(other_after)]),
        }
        # Per slot: group * (n + 1) + (rows of other labels before the row).
        # Non-decreasing over slots, so one searchsorted counts the same-label
        # rows that precede a row's r-th different-label successor.
        self._key = group * (n + 1) + order - member

    @property
    def n_similar(self) -> int:
        return int(self._offsets["similar"][-1])

    @property
    def n_dissimilar(self) -> int:
        return int(self._offsets["dissimilar"][-1])

    def _offsets_of(self, kind: str) -> np.ndarray:
        if kind not in self._offsets:
            raise ValueError(f"unknown pair kind {kind!r}")
        return self._offsets[kind]

    def pairs_at(self, kind: str, ranks) -> np.ndarray:
        """(count, 2) int64 pairs at ``ranks`` in the row-major ``kind`` list."""
        offsets = self._offsets_of(kind)
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size and (ranks.min() < 0 or ranks.max() >= offsets[-1]):
            raise ValueError(f"{kind} pair rank out of range [0, {int(offsets[-1])})")
        i = np.searchsorted(offsets, ranks, side="right") - 1
        r = ranks - offsets[i]
        s = self._slot[i]
        if kind == "similar":
            j = self._order[s + 1 + r]
        else:
            same_between = np.searchsorted(self._key, self._key[s] + r, side="right") - s - 1
            j = i + 1 + r + same_between
        return np.column_stack([i, j])


def build_pair_constraints(labels) -> PairConstraints:
    """The n(n-1)/2 unordered index pairs, partitioned by label equality."""
    return PairConstraints(labels)


def pair_batch_counts(constraints: PairConstraints, n_pairs: int,
                      similar_fraction: float) -> tuple[int, int]:
    """(similar, dissimilar) pair counts of a batch, checked against ``constraints``.

    The similar count is round(n_pairs * similar_fraction); the remainder is
    dissimilar.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    if not 0.0 <= similar_fraction <= 1.0:
        raise ValueError(f"similar_fraction must be in [0, 1], got {similar_fraction}")
    n_similar = int(math.floor(n_pairs * similar_fraction + 0.5))
    n_dissimilar = n_pairs - n_similar
    if n_similar > constraints.n_similar:
        raise ValueError(f"batch needs {n_similar} similar pairs "
                         f"but only {constraints.n_similar} exist")
    if n_dissimilar > constraints.n_dissimilar:
        raise ValueError(f"batch needs {n_dissimilar} dissimilar pairs "
                         f"but only {constraints.n_dissimilar} exist")
    return n_similar, n_dissimilar


def draw_pairs(constraints: PairConstraints, n_similar: int, n_dissimilar: int,
               rng: np.random.Generator, batches: int = 1) -> np.ndarray:
    """``batches`` batches of distinct pairs, stacked: a (batches * n, 2) array.

    Batch b is rows ``b * n`` to ``(b + 1) * n``, n = n_similar + n_dissimilar,
    with its similar pairs first; pairs are distinct within a batch and
    uniform over their kind's list.  Batch by batch, the similar ranks are
    drawn before the dissimilar ranks, and a kind with a zero count draws
    nothing, so the result and the stream of ``rng`` equal ``batches`` calls
    with ``batches=1``.  Each kind's ranks are decoded in one call.
    """
    kinds = [(kind, count, total) for kind, count, total in (
        ("similar", n_similar, constraints.n_similar),
        ("dissimilar", n_dissimilar, constraints.n_dissimilar)) if count]
    if batches < 1:
        raise ValueError(f"batches must be at least 1, got {batches}")
    for kind, count, total in kinds:
        if count < 0:
            raise ValueError(f"negative {kind} pair count {count}")
        if count > total:
            raise ValueError(f"cannot draw {count} {kind} pairs: only {total} exist")
    ranks = [[] for _ in kinds]
    for _ in range(batches):
        for drawn, (_, count, total) in zip(ranks, kinds):
            drawn.append(rng.choice(total, size=count, replace=False))
    parts = [constraints.pairs_at(kind, np.concatenate(drawn)).reshape(batches, count, 2)
             for drawn, (kind, count, _) in zip(ranks, kinds)]
    if not parts:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(parts, axis=1).reshape(-1, 2)


# ---------------------------------------------------------------------------
# synthetic data


def synth_gaussian(k_identities: int, samples_per_identity: int, dim: int,
                   center_scale: float, noise_sigma: float, seed: int) -> Dataset:
    """Isotropic Gaussian identity clusters with uniformly placed centers.

    Centers are drawn uniformly from [-center_scale, center_scale]^dim; each
    sample is its identity's center plus N(0, noise_sigma^2 I) noise.
    """
    if k_identities < 1 or samples_per_identity < 1 or dim < 1:
        raise ValueError("k_identities, samples_per_identity and dim must be >= 1")
    for name, value in (("noise_sigma", noise_sigma), ("center_scale", center_scale)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
    if center_scale < 0:
        raise ValueError(f"center_scale must be non-negative, got {center_scale}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-center_scale, center_scale, size=(k_identities, dim))
    n = k_identities * samples_per_identity
    features = np.repeat(centers, samples_per_identity, axis=0)
    if noise_sigma > 0:
        features += rng.normal(0.0, noise_sigma, size=(n, dim))
    labels = np.repeat(np.arange(k_identities), samples_per_identity)
    width = len(str(k_identities - 1))
    names = {i: f"id{str(i).zfill(width)}" for i in range(k_identities)}
    return Dataset(features, labels, names)
