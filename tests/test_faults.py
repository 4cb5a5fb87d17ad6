"""Fault injection through the CLI: each worker-table defect ends in the
documented exit code and one diagnostic that names the file, and the line
where the reader knows it."""
from __future__ import annotations

import errno
import gzip
import itertools
import json
import logging
import os
import shutil
import warnings
from pathlib import Path

import pytest
from helpers import write_xyz_grid

from hwexposure import cli, synth


def make_world(tmp_path: Path) -> Path:
    world = tmp_path / "w"
    synth.synth(str(world), seed=7, n_tracts=9, n_groups=3)
    return world


def run(world: Path, out: Path) -> int:
    return cli.main(["run", "--config", str(world / "config.json"), "--out", str(out)])


def edit_lines(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def set_cell(path: Path, line: int, column: str, value: str) -> str:
    """Set one cell (1-based file line); returns the row's first cell."""
    def edit(lines):
        header = lines[0].split(",")
        cells = lines[line - 1].split(",")
        cells[header.index(column)] = value
        lines[line - 1] = ",".join(cells)
    edit_lines(path, edit)
    return path.read_text(encoding="utf-8").splitlines()[line - 1].split(",")[0]


def point_config(world: Path, key: str, template: str) -> None:
    config_path = world / "config.json"
    config = json.loads(config_path.read_text())
    config[key] = template
    config_path.write_text(json.dumps(config))


def test_crlf_tables_give_the_same_outputs(tmp_path):
    world = make_world(tmp_path)
    assert run(world, tmp_path / "lf") == 0
    for name in ("rac_2011.csv", "wac_2011.csv", "od_2011.csv"):
        path = world / name
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert run(world, tmp_path / "crlf") == 0
    for name in ("exposure.csv", "error.csv", "bins.csv", "bias.csv", "wilcoxon.csv"):
        assert (tmp_path / "crlf" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes()


def test_bom_before_the_header_is_ignored(tmp_path):
    world = make_world(tmp_path)
    assert run(world, tmp_path / "plain") == 0
    rac = world / "rac_2011.csv"
    rac.write_bytes(b"\xef\xbb\xbf" + rac.read_bytes())
    assert run(world, tmp_path / "bom") == 0
    assert ((tmp_path / "bom" / "exposure.csv").read_bytes()
            == (tmp_path / "plain" / "exposure.csv").read_bytes())


def test_ragged_row(tmp_path, caplog):
    world = make_world(tmp_path)
    edit_lines(world / "rac_2011.csv", lambda lines: lines.__setitem__(
        2, lines[2].rsplit(",", 1)[0]))
    assert run(world, tmp_path / "out") == 1
    assert "rac_2011.csv:3: column 'CNS20': bad count None" in caplog.text


@pytest.mark.parametrize("value", ["nan", "1.0", "x", "7_3", "٣", "9223372036854775808"])
def test_non_integer_count(tmp_path, caplog, value):
    world = make_world(tmp_path)
    set_cell(world / "wac_2011.csv", 4, "CA02", value)
    assert run(world, tmp_path / "out") == 1
    assert f"wac_2011.csv:4: column 'CA02': bad count '{value}'" in caplog.text


@pytest.mark.parametrize("value", ["y", "7_3"])
def test_blank_line_before_a_bad_row(tmp_path, caplog, value):
    world = make_world(tmp_path)
    od = world / "od_2011.csv"
    set_cell(od, 3, "S000", value)
    edit_lines(od, lambda lines: lines.insert(2, ""))
    assert run(world, tmp_path / "out") == 1
    assert f"od_2011.csv:4: column 'S000': bad count '{value}'" in caplog.text


@pytest.mark.parametrize("change", [lambda g: g[1:], lambda g: g + "7"],
                         ids=["stripped_leading_zero", "sixteen_digits"])
def test_bad_geocode_names_the_file(tmp_path, caplog, change):
    world = make_world(tmp_path)
    rac = world / "rac_2011.csv"
    geocode = rac.read_text().splitlines()[2].split(",")[0]
    set_cell(rac, 3, "h_geocode", change(geocode))
    assert run(world, tmp_path / "out") == 1
    assert (f"stage exposure: {rac}: block geocode must be 15 digits, "
            f"got {change(geocode)!r}") in caplog.text


@pytest.mark.parametrize("name, column", [("rac_2011.csv", "h_geocode"),
                                          ("od_2011.csv", "w_geocode")], ids=["rac", "od"])
@pytest.mark.parametrize("letter", ["é", "０"], ids=["latin1_letter", "fullwidth_digit"])
def test_non_ascii_geocode_names_the_file(tmp_path, caplog, name, column, letter):
    # "é" is one Latin-1 byte, read into the key and judged as a geocode; the
    # full-width zero has no Latin-1 byte at all, so numpy rejects its cell
    world = make_world(tmp_path)
    path = world / name
    header = path.read_text().splitlines()[0].split(",")
    geocode = path.read_text().splitlines()[3].split(",")[header.index(column)]
    set_cell(path, 4, column, geocode[:-1] + letter)
    assert run(world, tmp_path / "out") == 1
    bad = geocode[:-1] + letter
    assert (f"stage exposure: {path}: block geocode must be 15 digits, got {bad!r}"
            if letter == "é" else
            f"stage exposure: {path}:4: column {column!r}: bad geocode {bad!r}") in caplog.text


def test_truncated_gzip(tmp_path, caplog):
    world = make_world(tmp_path)
    data = gzip.compress((world / "od_2011.csv").read_bytes())
    (world / "od_2011.csv.gz").write_bytes(data[: len(data) // 2])
    point_config(world, "od", "od_{year}.csv.gz")
    assert run(world, tmp_path / "out") == 1
    assert f"{world / 'od_2011.csv.gz'}: cannot read: " in caplog.text


def flip_deflate_bytes(data: bytes) -> bytes:
    return data[:20] + bytes(b ^ 0xFF for b in data[20:60]) + data[60:]


@pytest.mark.parametrize("corrupt", [lambda data: b"not a gzip stream\n", flip_deflate_bytes],
                         ids=["not_gzip", "bad_deflate_data"])
def test_corrupt_gzip(tmp_path, caplog, corrupt):
    world = make_world(tmp_path)
    data = gzip.compress((world / "od_2011.csv").read_bytes())
    (world / "od_2011.csv.gz").write_bytes(corrupt(data))
    point_config(world, "od", "od_{year}.csv.gz")
    assert run(world, tmp_path / "out") == 1
    assert f"{world / 'od_2011.csv.gz'}: cannot read: " in caplog.text


def test_invalid_utf8(tmp_path, caplog):
    world = make_world(tmp_path)
    wac = world / "wac_2011.csv"
    wac.write_bytes(wac.read_bytes().replace(b"\n", b"\n\xff", 3))
    assert run(world, tmp_path / "out") == 1
    assert f"{wac}: cannot read: " in caplog.text


def test_invalid_utf8_past_the_header_read(tmp_path, caplog):
    # a bad byte past the first 8 KB is decoded by the table read, not the
    # header read; it is named the same way
    world = make_world(tmp_path)
    wac = world / "wac_2011.csv"
    header, rows = wac.read_bytes().split(b"\n", 1)
    wac.write_bytes(header + b"\n" + rows * (8192 // len(rows) + 1) + b"\xff\n")
    assert run(world, tmp_path / "out") == 1
    assert f"{wac}: cannot read: 'utf-8' codec can't decode byte 0xff" in caplog.text


def test_empty_table_names_the_file(tmp_path, caplog):
    world = make_world(tmp_path)
    (world / "rac_2011.csv").write_text("")
    assert run(world, tmp_path / "out") == 1
    assert f"stage exposure: {world / 'rac_2011.csv'}: empty file" in caplog.text


def use_xyz_grid(world: Path) -> Path:
    """Point the world's config at an XYZ copy of its grid; returns its path."""
    path = world / "grid_2011.csv"
    write_xyz_grid(str(world / "grid_2011.asc"), str(path))
    point_config(world, "grid", "grid_{year}.csv")
    return path


# each input kind: the stage that reads it, and its path once the world uses it
INPUTS = {
    "asc": ("surface", lambda world: world / "grid_2011.asc"),
    "xyz": ("surface", use_xyz_grid),
    "tracts": ("surface", lambda world: world / "tracts.geojson"),
    "mask": ("surface", lambda world: world / "urban.geojson"),
    "rac": ("exposure", lambda world: world / "rac_2011.csv"),
}


@pytest.mark.parametrize("fault, reason", [
    ("non_utf8", "'utf-8' codec can't decode byte 0xff in position "),
    ("directory", "Is a directory"),
])
@pytest.mark.parametrize("kind", INPUTS)
def test_unreadable_input_names_the_file(tmp_path, caplog, kind, fault, reason):
    world = make_world(tmp_path)
    stage, locate = INPUTS[kind]
    path = locate(world)
    if fault == "directory":
        # found by the configuration check, before any stage
        path.unlink()
        path.mkdir()
        assert run(world, tmp_path / "out") == 2
        assert f"configuration error: {path}: cannot read input file: {reason}" in caplog.text
        assert not (tmp_path / "out").exists()
    else:
        path.write_bytes(path.read_bytes() + b"\xff")
        assert run(world, tmp_path / "out") == 1
        assert f"stage {stage}: {path}: cannot read: {reason}" in caplog.text


# the fault of one bad cell of each kind of table, given its column and text
BAD_CELL = {
    "rac": lambda column, cell: f"column {column!r}: bad count {cell!r}",
    "xyz": lambda column, cell: "non-numeric x, y or value",
}


@pytest.mark.parametrize("kind, column", [("rac", "C000"), ("xyz", "value")])
def test_quote_never_closed_names_its_line(tmp_path, caplog, kind, column):
    # a record is one line and a quote is an ordinary character: a quote
    # that csv would leave open is part of a bad cell at its own line, with
    # 20,000 rows after it or none, and after a literal quote in the row's
    # first cell too
    world = make_world(tmp_path)
    stage, locate = INPUTS[kind]
    path = locate(world)
    text = path.read_text()
    header, row = text.splitlines()[:2]
    rows = f"{row}\n" * 20_000
    assert len(rows) > 2**17 > len(text)

    def errors() -> list[str]:
        return [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]

    quoted = '"7'
    for (line, tail), literal in itertools.product(((3, rows), (4, "")), (False, True)):
        caplog.clear()
        path.write_text(text, encoding="utf-8")
        first = set_cell(path, line, column, quoted)
        if literal:
            set_cell(path, line, header.split(",")[0], f'{first[:1]}"{first[1:]}')
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(tail)
        assert run(world, tmp_path / "out") == 1
        assert errors() == [f"stage {stage}: {path}:{line}: {BAD_CELL[kind](column, quoted)}"]
    # so is a quote at a cell's end
    caplog.clear()
    closed = '7"'
    set_cell(path, 4, column, closed)
    assert run(world, tmp_path / "out") == 1
    assert errors() == [f"stage {stage}: {path}:4: {BAD_CELL[kind](column, closed)}"]
    # a quoted header name is not the name; an unquoted cell past csv's
    # 128 KiB field limit is one more bad cell
    header_fault = {"rac": f"missing required column(s) [{column!r}]",
                    "xyz": "expected header 'x,y,value'"}[kind]
    long_cell = row.split(",")[-1] + "x" * 2**17
    for text, fault in (
            (header.replace(column, f'"{column}') + "\n" + rows, f": {header_fault}"),
            (f"{header}\n{row}{'x' * 2**17}\n{rows}",
             f":2: {BAD_CELL[kind](header.split(',')[-1], long_cell)}")):
        caplog.clear()
        path.write_text(text, encoding="utf-8")
        assert run(world, tmp_path / "out") == 1
        assert errors() == [f"stage {stage}: {path}{fault}"]


@pytest.mark.parametrize("end", ["\n", ""])
def test_quote_in_the_last_cell_is_a_bad_count(tmp_path, caplog, end):
    # a quote csv would leave open in the last line's last cell was once read
    # as that cell, the open field's rest of the file
    world = make_world(tmp_path)
    path = world / "rac_2011.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",")[-1]
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ',"7'
    path.write_text("\n".join(lines) + end, encoding="utf-8")
    assert run(world, tmp_path / "out") == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"stage exposure: {path}:{len(lines)}: column {column!r}: bad count "
                      + repr('"7')]


@pytest.mark.parametrize("key, value", [
    ("xllcorner", "nan"), ("xllcorner", "inf"), ("cellsize", "nan"), ("cellsize", "inf"),
])
def test_non_finite_grid_header_names_the_line(tmp_path, caplog, key, value):
    # a NaN or infinite corner or cell size is a named fault: it once ended
    # the run in a traceback, or (cellsize inf) in exit 0 with every tract
    # excluded and every worker dropped
    world = make_world(tmp_path)
    grid = world / "grid_2011.asc"
    lines = grid.read_text(encoding="utf-8").splitlines()
    line = next(n for n, text in enumerate(lines, start=1) if text.split()[0] == key)
    edit_lines(grid, lambda lines: lines.__setitem__(line - 1, f"{key} {value}"))
    assert run(world, tmp_path / "out") == 1
    assert f"stage surface: {grid}:{line}: {key} must be finite, got '{value}'" in caplog.text


@pytest.mark.parametrize("key, line", [
    ("ncols", "NCOLS 3"), ("cellsize", "cellsize 2"), ("nodata_value", "nodata_value -1"),
])
def test_repeated_grid_header_keyword_names_the_line(tmp_path, caplog, key, line):
    # read last-wins, a second ncols reshaped the cells and a second
    # cellsize scaled every cell; keywords match in any case
    world = make_world(tmp_path)
    grid = world / "grid_2011.asc"
    lines = grid.read_text(encoding="utf-8").splitlines()
    first = next(n for n, text in enumerate(lines, start=1) if text.split()[0].lower() == key)
    edit_lines(grid, lambda lines: lines.insert(first, line))
    assert run(world, tmp_path / "out") == 1
    assert (f"stage surface: {grid}:{first + 1}: repeated header keyword {key!r}"
            in caplog.text)


def set_header(grid: Path, key: str, value: str) -> None:
    edit_lines(grid, lambda lines: lines.__setitem__(
        next(n for n, text in enumerate(lines) if text.split()[0] == key), f"{key} {value}"))


@pytest.mark.parametrize("key, value, message", [
    ("xllcorner", "1e17", "origin (1e+17, 0.0) and cell size 1.0 x 1.0 put the tracts outside "
                          "the exact cell range"),
    ("xllcorner", "1e20", "origin (1e+20, 0.0) and cell size 1.0 x 1.0 put the tracts outside "
                          "the exact cell range"),
    ("cellsize", "1e-320", "cell area 1e-320 x 1e-320 must be finite and positive, got 0.0"),
    ("cellsize", "1e308", "cell area 1e+308 x 1e+308 must be finite and positive, got inf"),
])
def test_grid_lattice_that_cannot_place_the_tracts_is_named(tmp_path, caplog, key, value,
                                                            message):
    # a finite header whose lattice puts the tracts beyond float64's exact
    # cell coordinates, or whose cell area under- or overflows, once ended
    # the run in a traceback from the coverage kernel, or (cellsize 1e308)
    # in exit 0 with a RuntimeWarning and every tract excluded
    world = make_world(tmp_path)
    grid = world / "grid_2011.asc"
    set_header(grid, key, value)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run(world, tmp_path / "out") == 1
    assert f"stage surface: {grid}: {message}" in caplog.text
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("value", ["1e6", "1e12", "8e15"])  # 8e15 < 2**53
def test_grid_far_from_the_tracts_excludes_them(tmp_path, caplog, value):
    world = make_world(tmp_path)
    set_header(world / "grid_2011.asc", "xllcorner", value)
    assert run(world, tmp_path / "out") == 0
    assert "9 tract(s) with no valid grid coverage excluded" in caplog.text


def add_second_year(world: Path) -> Path:
    """Give the world 2012 copies of its 2011 grid and tables; returns the
    2012 grid's path, which the config's grid_{year}.asc template names."""
    for name in ("grid_2011.asc", "rac_2011.csv", "wac_2011.csv", "od_2011.csv"):
        shutil.copyfile(world / name, world / name.replace("2011", "2012"))
    point_config(world, "years", [2011, 2012])
    return world / "grid_2012.asc"


@pytest.mark.parametrize("locate", [
    *(locate for _, locate in INPUTS.values()),
    lambda world: world / "wac_2011.csv",
    lambda world: world / "od_2011.csv",
    add_second_year,
], ids=[*INPUTS, "wac", "od", "grid_template_2012"])
def test_input_directory_fails_validate(tmp_path, caplog, locate):
    caplog.set_level(logging.INFO)  # so that a "config ok" line would show
    world = make_world(tmp_path)
    path = locate(world)
    path.unlink()
    path.mkdir()
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        caplog.clear()
        assert cli.main([*command, "--config", str(world / "config.json")]) == 2
        assert f"configuration error: {path}: cannot read input file: Is a directory" \
            in caplog.text
    assert "config ok" not in caplog.text
    assert not (tmp_path / "out").exists()


def test_first_input_directory_is_named(tmp_path, caplog):
    # input order: tracts, mask, then each year's grid, rac, wac and od
    world = make_world(tmp_path)
    for name in ("od_2011.csv", "urban.geojson", "grid_2011.asc"):
        (world / name).unlink()
        (world / name).mkdir()
    assert cli.main(["validate", "--config", str(world / "config.json")]) == 2
    assert f"configuration error: {world / 'urban.geojson'}: cannot read input file" \
        in caplog.text


def report_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix == ".csv"}


@pytest.mark.parametrize("grid", ["asc", "xyz"])
def test_every_input_accepts_a_byte_order_mark(tmp_path, grid):
    world = make_world(tmp_path)
    names = ["config.json", "tracts.geojson", "urban.geojson", "rac_2011.csv",
             "wac_2011.csv", "od_2011.csv", INPUTS[grid][1](world).name]
    assert run(world, tmp_path / "plain") == 0
    for name in names:
        (world / name).write_bytes(b"\xef\xbb\xbf" + (world / name).read_bytes())
    assert run(world, tmp_path / "bom") == 0
    assert report_bytes(tmp_path / "bom") == report_bytes(tmp_path / "plain")


def test_gzipped_geojson_gives_the_same_outputs(tmp_path):
    world = make_world(tmp_path)
    assert run(world, tmp_path / "plain") == 0
    for key, name in (("tracts", "tracts.geojson"), ("urban_mask", "urban.geojson")):
        (world / f"{name}.gz").write_bytes(gzip.compress((world / name).read_bytes()))
        point_config(world, key, f"{name}.gz")
    assert run(world, tmp_path / "gz") == 0
    assert report_bytes(tmp_path / "gz") == report_bytes(tmp_path / "plain")


def test_header_only_table(tmp_path, caplog):
    for name in ("od_2011.csv", "rac_2011.csv"):
        world = make_world(tmp_path / name)
        edit_lines(world / name, lambda lines: lines.__delitem__(slice(1, None)))
        assert run(world, tmp_path / name / "out") == 1
        assert f"stage exposure: {world / name}: no data rows" in caplog.text


@pytest.mark.parametrize("change", [lambda g: g[1:], int], ids=["stripped_leading_zero", "number"])
def test_bad_tract_geoid_names_the_file_and_feature(tmp_path, caplog, change):
    world = make_world(tmp_path)
    path = world / "tracts.geojson"
    collection = json.loads(path.read_text())
    geoid = collection["features"][3]["properties"]["GEOID"]
    collection["features"][3]["properties"]["GEOID"] = change(geoid)
    path.write_text(json.dumps(collection))
    assert run(world, tmp_path / "out") == 1
    assert (f"stage surface: {path}: feature 3: GEOID must be a string of 11 ASCII digits, "
            f"got {change(geoid)!r}") in caplog.text


def test_negative_count(tmp_path, caplog):
    world = make_world(tmp_path)
    rac = world / "rac_2011.csv"
    geocode = set_cell(rac, 5, "CT02", "-1")
    assert run(world, tmp_path / "out") == 1
    assert f"stage exposure: {rac}: row {geocode}: negative count -1" in caplog.text


def test_partition_mismatch(tmp_path, caplog):
    world = make_world(tmp_path)
    od = world / "od_2011.csv"
    lines = od.read_text().splitlines()
    header, cells = lines[0].split(","), lines[6].split(",")
    total = int(cells[header.index("S000")])
    set_cell(od, 7, "S000", str(total + 1))
    assert run(world, tmp_path / "out") == 1
    assert (f"stage exposure: {od}: row {cells[1]}->{cells[0]}: od_age: "
            f"category sum {total} != total {total + 1}") in caplog.text


@pytest.mark.parametrize("name, columns, repeated", [
    ("od_2011.csv", ["SA01"], ["SA01"]),
    ("rac_2011.csv", ["C000", "h_geocode"], ["h_geocode", "C000"]),
])
def test_repeated_table_column_is_named(tmp_path, caplog, name, columns, repeated):
    # read last-wins, a second SA01 (here holding SA02's counts) was read in
    # place of the first, and the run ended on a category sum naming neither
    world = make_world(tmp_path)
    path = world / name
    header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
    source = "SA02" if name.startswith("od") else None

    def edit(lines):
        lines[0] = ",".join(header + columns)
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            lines[i] = ",".join(cells + [cells[header.index(source or c)] for c in columns])
    edit_lines(path, edit)
    assert run(world, tmp_path / "out") == 1
    assert f"stage exposure: {path}: repeated column(s) {repeated}" in caplog.text


def _set_ring(ring):
    def edit(feature):
        feature["geometry"] = {"type": "Polygon", "coordinates": [ring]}
    return edit


def _set_coordinate(value):
    def edit(feature):
        feature["geometry"]["coordinates"][0][1][0] = value
    return edit


def _set_geometry(gtype, coordinates):
    def edit(feature):
        feature["geometry"] = {"type": gtype, "coordinates": coordinates}
    return edit


def _set_position(position):
    def edit(feature):
        feature["geometry"]["coordinates"][0][1] = position
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("tracts.geojson", _set_ring([[0, 0], [1, 0], [0, 0], [1, 0]]),
     "ring needs >= 3 distinct vertices, got 2"),
    ("tracts.geojson", _set_ring([[0, 0], [1, 1], [2, 2], [0, 0]]), "exterior ring has zero area"),
    ("tracts.geojson", _set_coordinate("abc"), "coordinate must be a finite number, got 'abc'"),
    ("tracts.geojson", _set_coordinate(None), "coordinate must be a finite number, got None"),
    ("tracts.geojson", _set_coordinate("1.5"), "coordinate must be a finite number, got '1.5'"),
    ("tracts.geojson", _set_coordinate(True), "coordinate must be a finite number, got True"),
    ("tracts.geojson", _set_coordinate(float("nan")), "coordinate must be a finite number, got nan"),
    ("urban.geojson", _set_coordinate(float("inf")), "coordinate must be a finite number, got inf"),
    ("urban.geojson", _set_ring([[0, 0], [1, 0]]), "ring needs >= 3 distinct vertices, got 2"),
    ("tracts.geojson", _set_geometry("Polygon", [[[0, 0], [4, 0], [4, 4], [0, 4]],
                                                 [[1, 1], [2, 2], [3, 3]]]),
     "hole ring has zero area"),
    ("tracts.geojson", _set_geometry("MultiPolygon", []), "tract {geoid} has no polygons"),
    ("tracts.geojson", _set_geometry("Polygon", []), "polygon has no rings"),
    ("urban.geojson", _set_geometry("MultiPolygon", [[[[0, 0], [1, 0], [1, 1]]], None]),
     "polygon has no rings"),
    ("tracts.geojson", _set_geometry("Polygon", [5]), "ring must be a list of positions, got 5"),
    ("tracts.geojson", _set_position([1.5]),
     "position must be a list of 2 or more numbers, got [1.5]"),
    ("urban.geojson", _set_position("1, 2"),
     "position must be a list of 2 or more numbers, got '1, 2'"),
    ("tracts.geojson", _set_coordinate(10 ** 400),
     f"coordinate must be a finite number, got {10 ** 400}"),
    ("urban.geojson", _set_geometry("MultiPolygon", 5),
     "MultiPolygon coordinates must be a list of polygons, got 5"),
], ids=["two_distinct_vertices", "collinear", "string", "null", "numeric_string", "boolean",
        "nan", "mask_infinity", "mask_two_vertices", "zero_area_hole", "no_polygons",
        "no_rings", "mask_polygon_not_a_list", "ring_not_a_list", "one_number_position",
        "mask_position_not_a_list", "int_beyond_float", "mask_multipolygon_not_a_list"])
def test_bad_geometry_names_the_file_and_feature(tmp_path, caplog, name, edit, message):
    world = make_world(tmp_path)
    path = world / name
    collection = json.loads(path.read_text())
    feature = len(collection["features"]) - 1
    edit(collection["features"][feature])
    path.write_text(json.dumps(collection))
    geoid = collection["features"][feature]["properties"].get("GEOID")
    assert run(world, tmp_path / "out") == 1
    assert f"stage surface: {path}: feature {feature}: {message.format(geoid=geoid)}" \
        in caplog.text


def test_ring_area_past_float64_names_the_file(tmp_path, caplog):
    # a mask rectangle with finite corners whose shoelace area overflows to
    # NaN used to read as a ring, and the winding test then overflowed
    # silently and classified every tract rural; it is a fault of the mask
    # file, reported before anything warns
    world = make_world(tmp_path)
    path = world / "urban.geojson"
    rectangle = [[-1.7e308, -1.0], [1.7e308, -1.0], [1.7e308, 1.5], [-1.7e308, 1.5]]
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [rectangle]}}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(world, tmp_path / "out") == 1
    assert f"stage surface: {path}: feature 0: ring area overflows float64" in caplog.text


def test_duplicate_tract_geoid_names_the_file(tmp_path, caplog):
    world = make_world(tmp_path)
    path = world / "tracts.geojson"
    collection = json.loads(path.read_text())
    geoid = collection["features"][0]["properties"]["GEOID"]
    collection["features"][-1]["properties"]["GEOID"] = geoid
    path.write_text(json.dumps(collection))
    assert run(world, tmp_path / "out") == 1
    assert f"stage surface: {path}: duplicate tract geoids: [{geoid!r}]" in caplog.text


def test_empty_tract_list_names_the_file(tmp_path, caplog):
    world = make_world(tmp_path)
    path = world / "tracts.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
    assert run(world, tmp_path / "out") == 1
    assert f"stage surface: {path}: tract list is empty" in caplog.text


def test_zero_area_tract_names_the_file(tmp_path, caplog):
    # a hole as large as its exterior leaves the tract no area, so it has no
    # coverage completeness and no urban share: the tract reader names it,
    # before the urban mask (configured in a synth world) is read, and
    # without a mask as well
    for mask in (True, False):
        world = make_world(tmp_path / str(mask))
        if not mask:
            point_config(world, "urban_mask", None)
        path = world / "tracts.geojson"
        collection = json.loads(path.read_text())
        feature = collection["features"][0]
        (exterior,) = feature["geometry"]["coordinates"]
        feature["geometry"]["coordinates"] = [exterior, exterior[::-1]]
        path.write_text(json.dumps(collection))
        geoid = feature["properties"]["GEOID"]
        caplog.clear()
        assert run(world, tmp_path / str(mask) / "out") == 1
        assert f"stage surface: {path}: tract {geoid} has zero area" in caplog.text


def _set_feature(index, value):
    def edit(collection):
        collection["features"][index] = value
        return collection
    return edit


def _set_member(name, value):
    def edit(collection):
        collection["features"][-1][name] = value
        return collection
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("tracts.geojson", lambda c: [c], "expected a GeoJSON FeatureCollection"),
    ("urban.geojson", lambda c: [c], "expected a GeoJSON FeatureCollection"),
    ("tracts.geojson", lambda c: {**c, "features": {"0": c["features"][0]}},
     "expected a GeoJSON FeatureCollection"),
    ("urban.geojson", lambda c: {**c, "features": {}}, "expected a GeoJSON FeatureCollection"),
    ("tracts.geojson", _set_feature(1, 5), "feature 1: feature must be a JSON object, got 5"),
    ("urban.geojson", _set_feature(0, 5), "feature 0: feature must be a JSON object, got 5"),
    ("tracts.geojson", _set_member("geometry", [1, 2]),
     "feature {last}: geometry must be a JSON object, got [1, 2]"),
    ("urban.geojson", _set_member("geometry", [1, 2]),
     "feature {last}: geometry must be a JSON object, got [1, 2]"),
    ("tracts.geojson", _set_member("properties", ["GEOID"]),
     "feature {last}: properties must be a JSON object, got ['GEOID']"),
], ids=["top_level_array", "mask_top_level_array", "features_object", "mask_features_object",
        "feature_number", "mask_feature_number", "geometry_list", "mask_geometry_list",
        "properties_list"])
def test_wrong_geojson_structure_names_the_file(tmp_path, caplog, name, edit, message):
    world = make_world(tmp_path)
    path = world / name
    collection = json.loads(path.read_text())
    last = len(collection["features"]) - 1
    path.write_text(json.dumps(edit(collection)))
    assert run(world, tmp_path / "out") == 1
    assert f"stage surface: {path}: {message.format(last=last)}" in caplog.text


@pytest.mark.parametrize("name", ["tracts.geojson", "urban.geojson"])
def test_geojson_that_is_not_json_names_the_file(tmp_path, caplog, name):
    world = make_world(tmp_path)
    (world / name).write_text("{not json")
    assert run(world, tmp_path / "out") == 1
    assert f"stage surface: {world / name}: not valid JSON: " in caplog.text


def test_geojson_positions_keep_their_first_two_numbers(tmp_path):
    # a position's third number (an elevation) is dropped
    world = make_world(tmp_path)
    assert run(world, tmp_path / "flat") == 0
    for name in ("tracts.geojson", "urban.geojson"):
        collection = json.loads((world / name).read_text())
        for feature in collection["features"]:  # synth writes Polygons
            for ring in feature["geometry"]["coordinates"]:
                for position in ring:
                    position.append(100.0)
        (world / name).write_text(json.dumps(collection))
    assert run(world, tmp_path / "raised") == 0
    assert report_bytes(tmp_path / "raised") == report_bytes(tmp_path / "flat")


def test_repeated_year_is_a_config_error(tmp_path, caplog):
    # a repeated year would run that year twice and repeat every report row
    world = make_world(tmp_path)
    point_config(world, "years", [2011, 2011])
    assert run(world, tmp_path / "out") == 2
    assert "years must not repeat, got 2011 more than once" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, repeated", [
    ('"years": [2011]', '"years": [2012], "years": [2011, 2012]', ["years"]),
    ('"work": 0.206', '"work": 0.206, "home": 0.5, "work": 0.5', ["home", "work"]),
], ids=["years", "hw_weights"])
def test_repeated_config_key_is_a_config_error(tmp_path, caplog, old, new, repeated):
    # a JSON reader keeps the last of a repeated key: the years above would
    # run both years
    world = make_world(tmp_path)
    config = world / "config.json"
    text = json.dumps(json.loads(config.read_text()))
    assert old in text
    config.write_text(text.replace(old, new))
    assert cli.main(["validate", "--config", str(config)]) == 2
    assert run(world, tmp_path / "out") == 2
    message = f"configuration error: {config}: repeated config key(s) {repeated}"
    assert caplog.text.count(message) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("epsilons", ["a"]),
    ("epsilons", [float("nan")]),
    ("epsilons", [float("inf")]),
    ("epsilons", 0.5),
    ("thresholds", [None]),
    ("thresholds", [float("nan")]),
    ("thresholds", [True]),
    ("bin_counts", None),
    ("bin_counts", [10.0]),
    ("threads", "x"),
    ("threads", 1.5),
    ("threads", True),
    ("strata", "no"),
    ("years", 2011),
    ("years", [2011.0]),
    # a repeated entry would repeat that entry's report rows
    ("bin_counts", [10, 10]),
    ("epsilons", [0.5, 0.5]),
    ("thresholds", [5.0, 5.0]),
    ("epsilons", [1, 1.0]),
    ("stages", ["bias", "surface", "bias"]),
    ("epsilons", [0.5, 0.5, "a"]),  # a bad entry is reported before a repeat
    ("grid", 5),
    ("urban_mask", 3),
    ("out_dir", None),
    ("stages", None),
    ("hw_weights", [0.794, 0.206]),
    ("hw_weights", {"home": 0.794, "work": 0.206, "school": 0.5}),
    ("hw_weights", {"home": 0.794}),
    ("hw_weights", {"home": "0.794", "work": 0.206}),
    ("hw_weights", {"home": True, "work": False}),
    ("hw_weights", {"home": 0.794, "work": None}),
    ("grid", "grid_{yr}.asc"),
    ("rac", "rac_{year"),
    ("od", "od_{}.csv"),
    ("grid", "grid_{year}.txt"),  # the grid readers take .asc and .csv only
    ("grid", "grid_{year}.csv.gz"),
], ids=lambda v: json.dumps(v))
def test_malformed_config_value_names_the_key(tmp_path, caplog, key, value):
    world = make_world(tmp_path)
    point_config(world, key, value)
    code = cli.main(["validate", "--config", str(world / "config.json")])
    assert code == 2
    rule = "must not repeat" if value in ([10, 10], [0.5, 0.5], [5.0, 5.0], [1, 1.0],
                                          ["bias", "surface", "bias"]) else "must be"
    assert f"configuration error: {key} {rule}" in caplog.text
    assert run(world, tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["years", "grid", "tracts"])
def test_missing_required_key_is_a_config_error(tmp_path, caplog, key):
    world = make_world(tmp_path)
    config = json.loads((world / "config.json").read_text())
    del config[key]
    (world / "config.json").write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(world / "config.json")]) == 2
    assert f"configuration error: config key {key!r} is required" in caplog.text


def test_repeated_entry_names_the_smallest_repeat(tmp_path, caplog):
    world = make_world(tmp_path)
    point_config(world, "thresholds", [12.0, 10.0, 12, 5.0, 10.0])
    assert run(world, tmp_path / "out") == 2
    assert "thresholds must not repeat, got 10.0 more than once" in caplog.text


def test_threads_flag_meets_the_threads_rule(tmp_path, caplog):
    world = make_world(tmp_path)
    assert cli.main(["validate", "--config", str(world / "config.json"), "--threads", "0"]) == 2
    assert "configuration error: threads must be an integer >= 1, got 0" in caplog.text


def test_stage_without_its_tables_is_a_config_error(tmp_path, caplog):
    world = make_world(tmp_path)
    config = json.loads((world / "config.json").read_text())
    del config["wac"]
    (world / "config.json").write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(world / "config.json")]) == 2
    assert ("configuration error: rac and wac paths are required for the "
            "exposure/disparity stages") in caplog.text


def test_stage_flag_without_its_table_is_a_config_error(tmp_path, caplog):
    # the config is valid for its own stages; run --stage bias also needs od
    world = make_world(tmp_path)
    config = json.loads((world / "config.json").read_text())
    del config["od"]
    config["stages"] = ["surface", "exposure", "disparity"]
    (world / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(world / "config.json"), "--out", str(out),
                     "--stage", "bias"]) == 2
    assert "configuration error: od path is required for the bias stage" in caplog.text
    assert not out.exists()


def test_stage_flag_checks_only_the_tables_of_its_stage(tmp_path):
    # --stage overrides stages: the bias stage the config lists needs od, but
    # run --stage surface reads no worker table
    world = make_world(tmp_path)
    config = json.loads((world / "config.json").read_text())
    del config["od"]
    (world / "config.json").write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(world / "config.json")]) == 2
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(world / "config.json"), "--out", str(out),
                     "--stage", "surface"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "surface_2011.csv",
                                                     "urban.csv"]


@pytest.mark.parametrize("value, reason", [
    ({"home": 0.794, "work": 0.206, "school": 0.5},
     "keys must be 'home' and 'work', got ['home', 'school', 'work']"),
    ({"home": 0.794}, "keys must be 'home' and 'work', got ['home']"),
    ({"home": "0.794", "work": 0.206}, "home must be a number, got '0.794'"),
    ({"home": True, "work": False}, "home must be a number, got True"),
    ({"home": 0.794, "work": None}, "work must be a number, got None"),
], ids=["unknown_key", "missing_key", "string", "bools", "null"])
def test_hw_weights_fault_gives_its_reason(tmp_path, caplog, value, reason):
    world = make_world(tmp_path)
    point_config(world, "hw_weights", value)
    assert cli.main(["validate", "--config", str(world / "config.json")]) == 2
    assert ("configuration error: hw_weights must be {'home': h, 'work': w}: "
            f"{reason}") in caplog.text


def _unreadable(config: Path, monkeypatch) -> None:
    # mode 000 does not stop a root process, so the read itself is refused
    def refuse(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
    monkeypatch.setattr(Path, "read_text", refuse)


@pytest.mark.parametrize("name, make, reason", [
    ("w", None, "cannot read config file: Is a directory"),
    ("w/config.json/config.json", None, "cannot read config file: Not a directory"),
    ("latin1.json", lambda path, _: path.write_bytes('{"tracts": "caf\xe9"}'.encode("latin-1")),
     "config file is not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 15"),
    ("w/config.json", _unreadable, "cannot read config file: Permission denied"),
    ("deep.json", lambda path, _: path.write_text("[" * 100_000),
     "invalid JSON: maximum recursion depth exceeded"),
    ("list.json", lambda path, _: path.write_text("[1]"), "config must be a JSON object"),
], ids=["directory", "path_through_a_file", "not_utf8", "unreadable", "nested_too_deep",
        "not_an_object"])
def test_unreadable_config_file_is_a_config_error(tmp_path, caplog, monkeypatch,
                                                  name, make, reason):
    make_world(tmp_path)
    config = tmp_path / name
    if make:
        make(config, monkeypatch)
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        caplog.clear()
        assert cli.main([*command, "--config", str(config)]) == 2
        assert f"configuration error: {config}: {reason}" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, reason", [
    ("taken", "File exists"),
    ("taken/out", "Not a directory"),
    ("x" * 300, "File name too long"),
], ids=["existing_file", "path_through_a_file", "name_too_long"])
def test_unusable_output_directory_is_a_config_error(tmp_path, caplog, name, reason):
    world = make_world(tmp_path)
    (tmp_path / "taken").write_text("not a directory\n")
    out = tmp_path / name
    for command in (["run"], ["run", "--stage", "bias"], ["surface"]):
        caplog.clear()
        argv = [*command, "--config", str(world / "config.json"), "--out", str(out)]
        assert cli.main(argv) == 2
        assert f"configuration error: {out}: cannot create output directory: {reason}" \
            in caplog.text
    assert (tmp_path / "taken").read_text() == "not a directory\n"


@pytest.mark.parametrize("command, name", [
    (["run"], "manifest.json"),
    (["run"], "surface_2011.csv"),
    (["run"], "exposure.csv"),
    (["run"], "wilcoxon.csv"),
    (["run", "--stage", "surface"], "urban.csv"),
    (["run", "--stage", "exposure"], "error.csv"),
    (["disparity"], "bins.csv"),
    (["run", "--stage", "bias"], "manifest.json"),
], ids=["manifest", "surface", "exposure", "last_report", "stage_surface", "stage_exposure",
        "stage_disparity", "stage_manifest"])
def test_report_path_that_is_a_directory_is_a_config_error(tmp_path, caplog, command, name):
    # found before the first stage, so the run writes nothing
    world = make_world(tmp_path)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = [*command, "--config", str(world / "config.json"), "--out", str(out)]
    assert cli.main(argv) == 2
    assert f"configuration error: {out / name}: cannot write output file: Is a directory" \
        in caplog.text
    assert [p.name for p in out.iterdir()] == [name]


def test_report_path_check_skips_files_the_run_does_not_write(tmp_path):
    # a stage run writes the manifest and the named stage's reports, not those
    # of its prerequisites
    world = make_world(tmp_path)
    out = tmp_path / "out"
    (out / "exposure.csv").mkdir(parents=True)
    argv = ["run", "--stage", "bias", "--config", str(world / "config.json"), "--out", str(out)]
    assert cli.main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["bias.csv", "exposure.csv", "manifest.json",
                                                     "wilcoxon.csv"]
