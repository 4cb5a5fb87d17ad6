"""Fault injection through the CLI: each worker-table defect ends in the
documented exit code and one diagnostic that names the file, and the line
where the reader knows it."""
from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("value", ["nan", "1.0", "x"])
def test_non_integer_count(tmp_path, caplog, value):
    world = make_world(tmp_path)
    set_cell(world / "wac_2011.csv", 4, "CA02", value)
    assert run(world, tmp_path / "out") == 1
    assert f"wac_2011.csv:4: column 'CA02': bad count '{value}'" in caplog.text


def test_blank_line_before_a_bad_row(tmp_path, caplog):
    world = make_world(tmp_path)
    od = world / "od_2011.csv"
    set_cell(od, 3, "S000", "y")
    edit_lines(od, lambda lines: lines.insert(2, ""))
    assert run(world, tmp_path / "out") == 1
    assert "od_2011.csv:4: column 'S000': bad count 'y'" in caplog.text


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
    # "é" is one Latin-1 byte; the full-width zero has no Latin-1 byte at all
    world = make_world(tmp_path)
    path = world / name
    header = path.read_text().splitlines()[0].split(",")
    geocode = path.read_text().splitlines()[3].split(",")[header.index(column)]
    set_cell(path, 4, column, geocode[:-1] + letter)
    assert run(world, tmp_path / "out") == 1
    assert (f"stage exposure: {path}: block geocode must be 15 digits, "
            f"got {geocode[:-1] + letter!r}") in caplog.text


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


def test_duplicate_tract_geoid_names_the_file(tmp_path, caplog):
    world = make_world(tmp_path)
    path = world / "tracts.geojson"
    collection = json.loads(path.read_text())
    geoid = collection["features"][0]["properties"]["GEOID"]
    collection["features"][-1]["properties"]["GEOID"] = geoid
    path.write_text(json.dumps(collection))
    assert run(world, tmp_path / "out") == 1
    assert f"stage surface: {path}: duplicate tract geoids: [{geoid!r}]" in caplog.text


def test_repeated_year_is_a_config_error(tmp_path, caplog):
    # a repeated year would run that year twice and repeat every report row
    world = make_world(tmp_path)
    point_config(world, "years", [2011, 2011])
    assert run(world, tmp_path / "out") == 2
    assert "years must not repeat, got 2011 more than once" in caplog.text
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
    ("grid", "grid_{yr}.asc"),
    ("rac", "rac_{year"),
    ("od", "od_{}.csv"),
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
