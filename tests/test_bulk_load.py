"""Bulk CSV loading: load_csv gives what a csv.reader row pass gives, on plain
text and on every other kind, reads plain text without csv.reader, parses float
columns as float() does field by field without calling it on plain files, and
report residual arrays are written like their lists."""

import csv
import io
import json
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from itertools import product

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from pathlossfit import UMA, UMI_SC, CIParams, Dataset, Environment, SyntheticSpec, generate
from pathlossfit import ingest
from pathlossfit.cli import _json_pieces
from pathlossfit.domain import first_violation
from pathlossfit.ingest import CSV_COLUMNS, IngestError, load_csv, write_csv


def reference_load_csv(path):
    """The row-by-row loader: one csv.reader list per row, then zip."""
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file (missing header)") from None
        header = [h.strip() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise IngestError(f"{path}: missing column(s) {', '.join(missing)}")
        extra = [c for c in header if c not in CSV_COLUMNS]
        if extra:
            warnings.warn(f"{path}: ignoring extra column(s) {', '.join(extra)}")
        rows = list(reader)

    problems = []
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    short = np.flatnonzero(widths < len(header))
    if short.size:
        row = int(short[0])
        problems.append((row, 0, f"expected {len(header)} columns, got {len(rows[row])}"))
        rows = rows[:row]
    columns = list(zip(*rows)) or [()] * len(header)
    text = {c: columns[header.index(c)] for c in CSV_COLUMNS}

    numbers = [reference_floats(text[column], column, order, problems)
               for order, column in enumerate(CSV_COLUMNS[:3], start=1)]
    codes, labels = reference_labels(text, problems)
    for order, (name, values) in enumerate(zip(("frequency", "distance", "path_loss"), numbers),
                                           start=5):
        problem = first_violation(name, values)
        if problem is not None:
            problems.append((problem[0], order, problem[1]))
    if problems:
        row, _, message = min(problems)
        raise IngestError(f"{path} line {row + 2}: {message}")
    return ingest.Dataset.from_columns(*numbers, codes, labels)


def duplicated_columns(path):
    """The required columns the file's header names more than once."""
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh), [])]
    return [c for c in CSV_COLUMNS if header.count(c) > 1]


def outcome(loader, path):
    """(dataset or error message, warning messages) of one load."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = loader(path)
        except IngestError as exc:
            result = f"IngestError: {exc}"
    return result, [str(w.message) for w in caught]


# plain field text: no quote, CR, LF or comma; \x0c, \x85 and \u2028 are
# line breaks to str.splitlines but not to csv
plain_text = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters='",\r\n'), max_size=6)
number_texts = {
    "frequency_ghz": st.one_of(st.floats(0.5, 100.0).map(repr),
                               st.sampled_from(["28", " 28 ", "1_0", "2.", "+3", "7e0"])),
    "distance_m": st.one_of(st.floats(1.0, 5e3).map(repr),
                            st.sampled_from(["1", "1_000", " 10\x0c", "1e3"])),
    "path_loss_db": st.one_of(st.floats(-1e3, 1e3).map(repr),
                              st.sampled_from(["-0", "-0.0", "0", "1_0", "\t99 ", "-1e-300"])),
}
label_texts = {
    "scenario": st.sampled_from(["UMa", "UMiSC", "InHOffice", "InHSM", "Other:tunnel",
                                 " UMa ", "Other: x"]),
    "environment": st.sampled_from(["LOS", "NLOS", " NLOS"]),
    "campaign": plain_text,
}
bad_values = {
    "frequency_ghz": ["", "abc", "0", "-1", "nan"],
    "distance_m": ["0.5", "inf", "x"],
    "path_loss_db": ["inf", "1e400", "", "nan"],
    "scenario": ["Rural", "", "Other:"],
    "environment": ["los", ""],
    "campaign": ["a\x00b"],
}
MUTATIONS = ("ragged", "blank", "quote", "bad", "nul", "drop column", "duplicate column",
             "crlf", "cr", "empty", "header only")


@st.composite
def csv_files(draw):
    """(text, BOM flag, mutations): a valid table, plain unless mutated.

    About half of the files are left unmutated; they are plain and load.
    """
    extras = draw(st.lists(st.sampled_from(["note", "x", "note"]), max_size=2))
    header = draw(st.permutations(list(CSV_COLUMNS) + extras))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        rows.append([draw(number_texts[c]) if c in number_texts
                     else draw(label_texts[c]) if c in label_texts
                     else draw(plain_text) for c in header])
    names = [draw(st.sampled_from([name, f" {name}", f"{name}\t"])) for name in header]
    mutations = draw(st.one_of(st.just([]),
                               st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)))
    end = "\n"
    for mutation in mutations:
        at = draw(st.integers(0, max(len(rows) - 1, 0)))
        column = draw(st.integers(0, len(names) - 1))
        if mutation == "ragged" and rows:
            rows[at] = rows[at][:-1] if draw(st.booleans()) else rows[at] + ["x"]
        elif mutation == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif mutation == "quote" and rows and rows[at]:
            inner = draw(st.sampled_from(["a,b", "l1\nl2", 'say ""hi""', "", "UMa"]))
            rows[at][min(column, len(rows[at]) - 1)] = f'"{inner}"'
        elif mutation == "bad" and rows and len(rows[at]) == len(header):
            name = header[column]
            rows[at][column] = draw(st.sampled_from(bad_values.get(name, ["?"])))
        elif mutation == "nul" and rows and rows[at]:
            rows[at][-1] += "\x00"
        elif mutation == "drop column":
            names.pop(column)
            for row in rows:
                row[column:column + 1] = []
        elif mutation == "duplicate column":
            names.append(draw(st.sampled_from(CSV_COLUMNS + ("x",))))
            for row in rows:
                row.append(row[0] if row else "")
        elif mutation in ("crlf", "cr"):
            end = "\r\n" if mutation == "crlf" else "\r"
        elif mutation == "header only":
            rows = []
    text = end.join(",".join(line) for line in [names] + rows)
    if draw(st.booleans()):
        text += end
    return "" if "empty" in mutations else text, draw(st.booleans()), mutations


HEADER = ",".join(CSV_COLUMNS) + "\n"
ROW = "28,100.5,120.25,UMa,NLOS,c1\n"


def one_label_traps(test):
    """The test, also run on files that hold one label but for one row, and
    on one-label files whose text the chunked path must refuse or read as
    ``float`` does."""
    files = [
        HEADER + ROW * 2 + ROW.replace("NLOS", "LOS"),        # the last row's label differs
        HEADER + ROW + ROW.replace("c1", "c2") + ROW,          # and a middle row's
        HEADER + ROW + ROW.replace(",UMa", ", UMa ") + ROW,    # the same label, spaced
        HEADER + ROW + "28,100.5,UMa,NLOS,c1\n28,100.5,120.25,7,UMa,NLOS,c1\n",  # 2 and 4
        HEADER + ROW + "28,100.5,\n7,UMa,NLOS,c1\n",             # a row without the tail
        HEADER + ROW + "2,1,-0,UMa,NLOS,c1\n" + ROW,           # -0, 0 and integers
        HEADER + ROW + "2,1,0,UMa,NLOS,c1\n",
        HEADER + ROW + "2,1,-0.0,UMa,NLOS,c1\n3,7,5,UMa,NLOS,c1\n",
        HEADER + ROW + ROW.rstrip("\n"),                      # no trailing newline
        HEADER + ROW.replace("c1", "2016") * 2,                # a numeric campaign name
        HEADER + ROW.replace("c1", "mesures-été ☃") * 2,       # a non-ASCII one
        HEADER + ROW + ROW.replace("120.25", "true") + ROW,    # a JSON value, not a number
        HEADER + ROW + ROW.replace("120.25", "[1]"),
        HEADER + ROW + ROW.replace("120.25", "1e400"),
        HEADER + ROW + ROW.replace("100.5", "0.5"),            # a bad sample
        HEADER + ROW.replace("UMa", "Rural") * 2,              # a bad label
        HEADER + ROW + "\n",                                  # a blank last line
        HEADER + ROW + "28,100.5,120.25,7,8,UMa,NLOS,c1\n",
        HEADER + ROW.replace(",NLOS,c1", "") * 2,              # a label tail of one text
        HEADER + ROW.replace("c1", "c1,x") * 2,                # and of four
    ]
    for text in files:
        test = example(file=(text, True, []))(example(file=(text, False, []))(test))
    return test


def header_traps(test):
    """The test, also run on headers whose padding ``str.strip`` removes and
    ``bytes.strip`` keeps (the ``csv`` path reads them), and on a header after
    a BOM with a tab after a name (the chunked path reads it)."""
    for pad in ("\u00a0", "\x1c", "\x85"):
        test = example(file=(HEADER.replace("distance_m", f"{pad}distance_m") + ROW * 2,
                             False, []))(test)
    return example(file=(HEADER.replace("scenario", "scenario\t") + ROW * 2, True, []))(test)


@settings(max_examples=400, deadline=None)
@given(file=csv_files())
@one_label_traps
@header_traps
def test_load_csv_equals_the_row_by_row_loader(tmp_path_factory, file):
    text, bom, mutations = file
    path = tmp_path_factory.mktemp("load") / "in.csv"
    path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
    got, got_warnings = outcome(load_csv, path)
    want, want_warnings = outcome(reference_load_csv, path)
    duplicated = duplicated_columns(path)
    if duplicated and not (isinstance(want, str) and "missing column" in want):
        # the row-by-row loader read the first of the two columns
        assert got == f"IngestError: {path}: duplicate column(s) {', '.join(duplicated)}"
        assert got_warnings == []
        event("duplicate column")
        return
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
        event("rejected")
        return
    for column in ("frequency", "distance", "path_loss", "codes"):
        assert getattr(got, column).dtype == getattr(want, column).dtype
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
    assert got.labels == want.labels
    event("plain, loaded" if not mutations else "mutated, loaded")


def test_plain_text_is_not_read_by_csv_reader(tmp_path, monkeypatch):
    spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=7,
                         frequencies=((2.0, 1000), (28.0, 1000)),
                         distance_range=(10.0, 500.0))
    path = tmp_path / "plain.csv"
    write_csv(generate(spec), path)
    yielded = []
    real_reader = csv.reader

    def counting_reader(*args, **kwargs):
        for row in real_reader(*args, **kwargs):
            yielded.append(row)
            yield row

    monkeypatch.setattr(ingest.csv, "reader", counting_reader)
    assert len(load_csv(path)) == 2000
    assert yielded == []


def reference_floats(texts, column, order, problems):
    """float() on each field in turn; the first bad one is noted and ends the column."""
    values = []
    for row, text in enumerate(texts):
        try:
            values.append(float(text))
        except ValueError:
            problems.append((row, order, f"unparsable {column} value {text.strip()!r}"))
            break
    return np.array(values, dtype=float)


def reference_labels(text, problems):
    """Each row's label code by hashing its three label texts, then the distinct labels."""
    index = {}
    raw = np.array([index.setdefault(key, len(index)) for key in zip(
        text["scenario"], text["environment"], text["campaign"])], dtype=np.intp)
    labels, remap = {}, []
    for code, (scenario, environment, campaign) in enumerate(index):
        try:
            label = (ingest.Scenario.parse(scenario.strip()),
                     ingest.Environment(environment.strip()), campaign.strip())
        except (ingest.DomainError, ValueError) as exc:
            problems.append((int(np.argmax(raw == code)), 4, str(exc)))
            return raw, ()
        remap.append(labels.setdefault(label, len(labels)))
    return np.array(remap, dtype=np.intp)[raw], tuple(labels)


@st.composite
def halfway_texts(draw, low=0.0, high=1e300):
    """A float's midpoint to the next float up, printed with 17-30 significant
    digits, with either sign when ``low`` is 0."""
    below = draw(st.floats(min_value=low, max_value=high))
    with localcontext() as context:
        context.prec = 1200
        middle = (Decimal(below) + Decimal(math.nextafter(below, math.inf))) / 2
        text = format(middle, f".{draw(st.integers(16, 29))}e")
    return draw(st.sampled_from(["", "-"] if low == 0.0 else [""])) + text


# texts that float() and a JSON parser read differently, or only one of them reads
FLOAT_TRAPS = ["-0", " -0 ", "\n-0", "28", "1E5", "1.e5", ".5", "+3", "1_0", "\u0663", "nan",
               "Infinity", "true", "null", '"1"', "1,2", "[1]", "\x0b2.0", "01", "1.", "",
               " ", "1e400", "-1e-400", "2e-324", "\t99 ", "0x10", "1 2", "]", "[1,2]"]
float_traps = st.one_of(st.sampled_from(FLOAT_TRAPS),
                        st.integers(2 ** 64, 10 ** 40).map(lambda n: f"-{n}"))


def number_fields(low=-1e300, high=1e300):
    """JSON number texts of values in [low, high]: shortest reprs, integers
    (also beyond 2**64) and halfway strings."""
    return st.one_of(st.floats(low, high).map(repr),
                     halfway_texts(max(low, 0.0), high),
                     st.integers(math.ceil(low), min(int(high), 2 ** 80)).map(str))


@st.composite
def with_traps(draw, cells, count=st.sampled_from([0, 0, 1, 2])):
    """The list ``cells`` of field texts with a few traps put in place of fields."""
    for _ in range(draw(count)):
        if cells:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(float_traps)
    return cells


GOOD_LABELS = [("UMa", "NLOS", "c1"), (" UMa", "NLOS ", "c1"), ("UMiSC", "LOS", "c2"),
               ("Other:tunnel", "NLOS", "")]
BAD_LABELS = [("Rural", "LOS", "c1"), ("UMa", "los", "c1")]


@st.composite
def number_rows(draw):
    """Rows of (frequency, distance, path loss) texts, valid but for traps."""
    rows = draw(st.lists(st.tuples(number_fields(0.5, 100.0), number_fields(1.0, 5e3),
                                   number_fields(-1e3, 1e3)), max_size=8))
    cells = draw(with_traps([text for row in rows for text in row]))
    return [cells[i:i + 3] for i in range(0, len(cells), 3)]


@settings(max_examples=400, deadline=None)
@given(rows=number_rows(),
       labels=st.lists(st.sampled_from(GOOD_LABELS), min_size=1, max_size=3),
       bad_label=st.sampled_from([None, None, None, *BAD_LABELS]), data=st.data())
def test_load_csv_equals_float_and_label_references(tmp_path_factory, rows, labels,
                                                     bad_label, data):
    """One-label and multi-label files, written with csv quoting where a field needs it."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row, numbers in enumerate(rows):
        label = bad_label if bad_label and row == len(rows) // 2 else data.draw(
            st.sampled_from(labels))
        writer.writerow(numbers + list(label))
    path = tmp_path_factory.mktemp("floats") / "in.csv"
    path.write_text(buffer.getvalue(), encoding="utf-8")
    got, got_warnings = outcome(load_csv, path)
    want, want_warnings = outcome(reference_load_csv, path)
    assert got_warnings == want_warnings == []
    if isinstance(want, str):
        assert got == want
        event("rejected")
        return
    for column in ("frequency", "distance", "path_loss", "codes"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
    assert got.labels == want.labels
    event(("no rows", "one label", "several labels")[min(len(got.labels), 2)])


def test_plain_text_is_parsed_without_float_per_field(tmp_path, monkeypatch):
    spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=7,
                         frequencies=((2.0, 1000), (28.0, 1000)),
                         distance_range=(10.0, 500.0))
    path = tmp_path / "plain.csv"
    write_csv(generate(spec), path)
    calls = []

    def counting_float(*args):
        calls.append(args)
        return float(*args)

    monkeypatch.setattr(ingest, "float", counting_float, raising=False)
    assert len(load_csv(path)) == 2000
    assert calls == []


def test_a_one_label_file_is_parsed_whole(tmp_path, monkeypatch):
    spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=7,
                         frequencies=((2.0, 5000), (28.0, 5000)),
                         distance_range=(10.0, 500.0))
    path = tmp_path / "plain.csv"
    ds = generate(spec)
    write_csv(ds, path)

    def refuse(*args):
        raise AssertionError("the csv path was entered")

    monkeypatch.setattr(ingest.csv, "reader", refuse)
    monkeypatch.setattr(ingest.orjson, "loads", counting(ingest.orjson.loads))
    for chunk in (ingest.LOAD_CHUNK, 4096):  # one parse per chunk of at least that many bytes
        monkeypatch.setattr(ingest, "LOAD_CHUNK", chunk)
        ingest.orjson.loads.calls = 0
        assert load_csv(path) == ds
        assert 2 <= ingest.orjson.loads.calls <= -(-path.stat().st_size // chunk)
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))
    assert load_csv(path) == ds


def counting(function):
    """``function``, counting its calls in the wrapper's ``calls``."""
    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return function(*args, **kwargs)
    wrapper.calls = 0
    return wrapper


def chunk_count(data: bytes, size: int) -> int:
    """The chunks of at least ``size`` bytes, cut at row ends, that the rows
    after the header of ``data`` make."""
    start, count = data.find(b"\n") + 1, 0
    while start < len(data):
        start, count = data.find(b"\n", start + size - 1) + 1 or len(data), count + 1
    return count


@pytest.mark.parametrize("layout", ["two-label", "interleaved"])
def test_a_file_of_several_labels_is_parsed_in_chunks(tmp_path, monkeypatch, layout):
    ds = generate(SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=7,
                                frequencies=((2.0, 9000), (28.0, 9000)),
                                distance_range=(10.0, 500.0)))
    row = np.arange(len(ds))
    codes = row >= len(ds) // 2 if layout == "two-label" else row % 2
    mixed = Dataset.from_columns(ds.frequency, ds.distance, ds.path_loss, codes,
                                 ((UMA, Environment.NLOS, "c1"), (UMI_SC, Environment.LOS, "c2")))
    path = tmp_path / "mixed.csv"
    write_csv(mixed, path)
    want = reference_load_csv(path)

    def refuse(*args):
        raise AssertionError("the csv path was entered")

    monkeypatch.setattr(ingest.csv, "reader", refuse)
    monkeypatch.setattr(ingest.orjson, "loads", counting(ingest.orjson.loads))
    for chunk in (ingest.LOAD_CHUNK, 4096):
        monkeypatch.setattr(ingest, "LOAD_CHUNK", chunk)
        ingest.orjson.loads.calls = 0
        got = load_csv(path)
        assert ingest.orjson.loads.calls == chunk_count(path.read_bytes(), chunk) >= 3
        for column in ("frequency", "distance", "path_loss", "codes"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
        assert got.labels == want.labels
        assert got == mixed


def uneven_rows(count):
    """``count`` rows of one label whose numbers differ in length, so that
    chunks are cut at uneven places."""
    ds = generate(SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=7,
                                frequencies=((28.0, count),), distance_range=(10.0, 500.0)))
    return [f"{f!r},{d!r},{loss!r},UMa,NLOS,c1\n" for f, d, loss
            in zip(ds.frequency.tolist(), ds.distance.tolist(), ds.path_loss.tolist())]


# what a later chunk's row may hold, as a change of its fields
CHUNK_TRAPS = {
    "none": lambda f: f,
    "other label": lambda f: f[:5] + [b"c2\n"],
    "-0": lambda f: f[:2] + [b"-0"] + f[3:],
    "zero": lambda f: f[:2] + [b"0.0"] + f[3:],
    "JSON whitespace": lambda f: f[:2] + [b" 7\t"] + f[3:],
    "non-number": lambda f: f[:2] + [b"1_20"] + f[3:],
    "bad JSON number": lambda f: f[:2] + [b"1..2"] + f[3:],
    "short row": lambda f: f[:2] + f[3:],
    "long row": lambda f: f[:3] + [b"7"] + f[3:],
    "bad sample": lambda f: f[:1] + [b"0.5"] + f[2:],
    "non-UTF-8 label": lambda f: f[:5] + [b"c\xe91\n"],
    "non-UTF-8 number": lambda f: f[:2] + [b"1\xff"] + f[3:],
}


def relabel(rows, at, old, new):
    """``rows`` with ``old`` replaced by ``new`` in the rows that ``at`` picks by index."""
    return [row.replace(old, new) if at(i) else row for i, row in enumerate(rows)]


# the label columns of the rows before the trap of CHUNK_TRAPS; with even rows
# and the trap "none", row 21 starts a chunk
LABEL_TRAPS = {
    "one label": lambda rows: rows,
    "interleaved": lambda rows: relabel(rows, lambda i: i % 2, b",c1\n", b",c2\n"),
    "change at a cut": lambda rows: relabel(rows, lambda i: i >= 21, b",c1\n", b",c2\n"),
    "new label first in a chunk": lambda rows: relabel(rows, lambda i: i == 21, b",c1\n",
                                                       b",c2\n"),
    "spaced": lambda rows: relabel(rows, lambda i: i % 2, b",UMa,", b", UMa ,"),
    "bad label later": lambda rows: relabel(LABEL_TRAPS["interleaved"](rows), lambda i: i == 25,
                                            b",UMa,", b",Rural,"),
    "non-UTF-8 second label": lambda rows: relabel(rows, lambda i: i % 2, b",c1\n", b",c\xe92\n"),
    "four commas": lambda rows: relabel(LABEL_TRAPS["interleaved"](rows), lambda i: i == 25,
                                        b",NLOS,", b","),
    "six commas": lambda rows: relabel(LABEL_TRAPS["interleaved"](rows), lambda i: i == 25,
                                       b",NLOS,", b",NLOS,x,"),
}


@pytest.mark.parametrize("trap", CHUNK_TRAPS)
@pytest.mark.parametrize("kind", ["even", "uneven"])
def test_a_chunked_load_equals_the_row_by_row_loader(tmp_path, monkeypatch, kind, trap):
    """Chunks of three ROWs are cut exactly at a row's end, the last one too
    (30 rows) or before a last chunk of one row (31 rows); each file is also
    loaded with each of LABEL_TRAPS, so that its chunks mix labels."""
    monkeypatch.setattr(ingest, "LOAD_CHUNK", 3 * len(ROW))
    rows = [ROW] * 31 if kind == "even" else uneven_rows(31)
    for labels, (bom, count, end) in product(LABEL_TRAPS, ((b"", 30, b"\n"),
                                             (b"\xef\xbb\xbf", 31, b"\n"), (b"", 31, b""))):
        body = LABEL_TRAPS[labels]([row.encode() for row in rows[:count]])
        body[20] = b",".join(CHUNK_TRAPS[trap](body[20].split(b",")))
        data = bom + HEADER.encode() + b"".join(body).removesuffix(b"\n") + end
        assert len(data) > 8 * ingest.LOAD_CHUNK
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        got = outcome(load_csv, path)
        try:
            data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            assert got == (f"IngestError: {path}: not UTF-8 text ({exc.reason})", [])
            continue
        want = outcome(reference_load_csv, path)
        assert got[1] == want[1] == []
        if isinstance(want[0], str):
            assert got[0] == want[0]
            continue
        for column in ("frequency", "distance", "path_loss", "codes"):
            assert getattr(got[0], column).tobytes() == getattr(want[0], column).tobytes()
        assert got[0].labels == want[0].labels


def test_short_rows_ending_three_chunks_are_not_read_as_one_row(tmp_path, monkeypatch):
    # each chunk's numbers come one short, and the three chunks' together fill rows
    short = ROW.replace("120.25,", "")
    monkeypatch.setattr(ingest, "LOAD_CHUNK", len(ROW * 2 + short))
    path = tmp_path / "in.csv"
    path.write_text(HEADER + (ROW * 2 + short) * 3 + ROW * 3, encoding="utf-8")
    assert outcome(load_csv, path) == outcome(reference_load_csv, path) == (
        f"IngestError: {path} line 4: expected 6 columns, got 5", [])


@pytest.mark.parametrize("copy", ["reordered", "CRLF"])
def test_the_csv_path_costs_a_few_times_the_file(tmp_path, copy):
    """The csv path's peak of traced memory stays under five times the file's
    bytes: it holds no list of rows (about eleven times)."""
    ds = generate(SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=7,
                                frequencies=((2.0, 10000), (28.0, 10000)),
                                distance_range=(10.0, 500.0)))
    path = tmp_path / "in.csv"
    write_csv(ds, path)
    lines = path.read_bytes().split(b"\n")
    data = (b"\n".join(b",".join(line.split(b",")[::-1]) for line in lines) if copy == "reordered"
            else b"\r\n".join(lines))
    path.write_bytes(data)
    tracemalloc.start()
    try:
        got = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ds
    assert peak < 5 * len(data)


def test_a_csv_error_after_the_first_bad_row_is_named_first(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(HEADER + ROW.replace("100.5", "x") + ROW + ROW.replace("c1", BIG),
                    encoding="utf-8")
    assert outcome(load_csv, path) == (
        f"IngestError: {path} line 4: field larger than field limit (131072)", [])


@pytest.mark.parametrize("extra", [0, 1], ids=["at the limit", "over it"])
@pytest.mark.parametrize("order,environments", [
    (CSV_COLUMNS, ("NLOS", "NLOS")), (CSV_COLUMNS, ("NLOS", "LOS")),
    (CSV_COLUMNS[::-1], ("NLOS", "NLOS")),
], ids=["one label", "two labels", "reordered"])
def test_the_csv_field_limit_holds_in_any_column_order(tmp_path, order, environments, extra):
    limit = csv.field_size_limit()
    campaign = "c" * (limit + extra)
    rows = [dict(zip(CSV_COLUMNS, ("28", distance, "120.25", "UMa", environment, campaign)))
            for distance, environment in zip(("100.5", "200.5"), environments)]
    path = tmp_path / "in.csv"
    path.write_text("".join(",".join(row[c] for c in order) + "\n"
                            for row in [dict(zip(CSV_COLUMNS, CSV_COLUMNS)), *rows]),
                    encoding="utf-8")
    got = outcome(load_csv, path)
    if extra:
        assert got == (f"IngestError: {path} line 2: field larger than field limit ({limit})", [])
    else:
        assert got == outcome(reference_load_csv, path)
        assert got[0].row_labels()[0][2] == campaign and len(got[0]) == 2


BIG = "x" * 200_000  # over csv.field_size_limit()


@pytest.mark.parametrize("data", [
    b"frequency_ghz\xff," + HEADER.encode().partition(b",")[2] + ROW.encode(),
    HEADER.encode() + ROW.encode() + b"\xc3",
    # the bad byte lies past the csv reader's first read of 8 KiB
    HEADER.replace(",campaign", "").encode() + ROW.encode() * 400 + b"\xe9\n",
    HEADER.replace("\n", ",note\n").encode() + ROW.encode() * 400 + b"\xe9\n",
    HEADER.replace("\n", f",{BIG}\n").encode() + ROW.encode() + b"\xe9\n",
    f"{BIG},{HEADER}".encode() + b"\xe9",
], ids=["in the header", "cut short", "missing column", "extra column", "long header field",
        "long field first"])
def test_text_that_is_not_utf8_is_refused_before_its_header_is_read(tmp_path, data):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as error:
        data.decode("utf-8-sig")
    assert outcome(load_csv, path) == (
        f"IngestError: {path}: not UTF-8 text ({error.value.reason})", [])
    path.write_bytes(data.replace(b"\xff", b"").replace(b"\xc3", b"").replace(b"\xe9", b""))
    if b"x" * 1000 in data:
        assert outcome(load_csv, path) == (
            f"IngestError: {path} line 1: field larger than field limit (131072)", [])


JSON_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, 1e16, -1e16,
              1e16 - 2.0, 1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1]


def as_lists(obj):
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [as_lists(item) for item in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def json_text(obj) -> bytes:
    """The JSON report writer's text of ``obj``: its pieces joined."""
    return b"".join(_json_pieces(obj))


class TestJsonArrays:
    def test_float_arrays_are_written_as_their_lists(self):
        doc = {"edges": np.array(JSON_EDGES), "empty": np.array([]),
               "finite": np.array([1.5, -2.25, 1e-7]),
               "models": {"ci": {"residuals_db": np.array([math.nan]), "n": 1}},
               "strided": np.array(JSON_EDGES)[::3], "list": [np.array([-math.inf, 2.0])]}
        assert json_text(doc).decode() == json.dumps(as_lists(doc), indent=2, sort_keys=True) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(allow_subnormal=True),
                                     st.sampled_from(JSON_EDGES)), max_size=30))
    def test_matches_json_dumps_of_the_list(self, values):
        array = np.array(values, dtype=np.float64)
        assert (json_text({"r": array}).decode()
                == json.dumps({"r": array.tolist()}, indent=2, sort_keys=True) + "\n")
