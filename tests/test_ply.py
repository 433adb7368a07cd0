import struct

import numpy as np
import pytest

from corrgroup import PlyFormatError, PointCloud, load_ply, save_ply


@pytest.fixture
def cloud():
    rng = np.random.default_rng(9)
    return PointCloud(rng.normal(size=(37, 3)) * 10.0)


def test_ascii_roundtrip(cloud, tmp_path):
    path = tmp_path / "a.ply"
    save_ply(cloud, path)
    loaded = load_ply(path)
    np.testing.assert_array_equal(loaded.points, cloud.points)


def test_binary_roundtrip(cloud, tmp_path):
    path = tmp_path / "b.ply"
    save_ply(cloud, path, binary=True)
    loaded = load_ply(path)
    np.testing.assert_array_equal(loaded.points, cloud.points)


def test_deterministic_bytes(cloud, tmp_path):
    save_ply(cloud, tmp_path / "one.ply")
    save_ply(cloud, tmp_path / "two.ply")
    assert (tmp_path / "one.ply").read_bytes() == (tmp_path / "two.ply").read_bytes()


def test_ascii_skips_unknown_properties(tmp_path):
    path = tmp_path / "extra.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "comment made elsewhere\n"
        "element vertex 2\n"
        "property float nx\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "property uchar red\n"
        "element face 1\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
        "0.5 1 2 3 255\n"
        "0.5 4 5 6 255\n"
        "3 0 1 0\n"
    )
    loaded = load_ply(path)
    np.testing.assert_allclose(loaded.points, [[1, 2, 3], [4, 5, 6]])


def test_binary_float32_vertices_with_extras(tmp_path):
    path = tmp_path / "f32.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar intensity\n"
        "end_header\n"
    ).encode()
    body = b"".join(
        struct.pack("<fffB", *xyz, 7) for xyz in [(1.0, 2.0, 3.0), (-1.0, 0.5, 9.0)]
    )
    path.write_bytes(header + body)
    loaded = load_ply(path)
    np.testing.assert_allclose(loaded.points, [[1, 2, 3], [-1, 0.5, 9]])


def test_binary_skips_leading_fixed_element(tmp_path):
    path = tmp_path / "lead.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element camera 1\n"
        "property double cx\nproperty double cy\n"
        "element vertex 1\n"
        "property double x\nproperty double y\nproperty double z\n"
        "end_header\n"
    ).encode()
    body = struct.pack("<dd", 0.1, 0.2) + struct.pack("<ddd", 4.0, 5.0, 6.0)
    path.write_bytes(header + body)
    loaded = load_ply(path)
    np.testing.assert_allclose(loaded.points, [[4.0, 5.0, 6.0]])


def test_rejects_big_endian(tmp_path):
    path = tmp_path / "be.ply"
    path.write_text("ply\nformat binary_big_endian 1.0\nelement vertex 0\nend_header\n")
    with pytest.raises(PlyFormatError, match="unsupported PLY format"):
        load_ply(path)


def test_rejects_integer_coordinates(tmp_path):
    path = tmp_path / "int.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property int x\nproperty float y\nproperty float z\nend_header\n1 2 3\n"
    )
    with pytest.raises(PlyFormatError, match="float type"):
        load_ply(path)


def test_rejects_missing_magic(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("not a ply\n")
    with pytest.raises(PlyFormatError, match="magic"):
        load_ply(path)


def test_rejects_truncated_ascii(tmp_path):
    path = tmp_path / "trunc.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n1 2 3\n"
    )
    with pytest.raises(PlyFormatError, match="truncated"):
        load_ply(path)


VERTEX_HEADER = (
    "ply\nformat {fmt} 1.0\nelement vertex {count}\n"
    "property double x\nproperty double y\nproperty double z\n{extra}end_header\n"
)


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
@pytest.mark.parametrize("count", ["two", "-1"])
def test_bad_element_count_names_header_line(tmp_path, fmt, count):
    path = tmp_path / "count.ply"
    path.write_text(VERTEX_HEADER.format(fmt=fmt, count=count, extra=""))
    with pytest.raises(PlyFormatError, match="header line 3: element count"):
        load_ply(path)


@pytest.mark.parametrize("extra, fault", [
    ("property float x\n", "duplicate property 'x'"),
    ("property\n", "malformed property line"),
])
def test_bad_property_line_names_header_line(tmp_path, extra, fault):
    path = tmp_path / "prop.ply"
    path.write_text(VERTEX_HEADER.format(fmt="ascii", count=1, extra=extra) + "1 2 3 4\n")
    with pytest.raises(PlyFormatError, match=f"header line 7: {fault}"):
        load_ply(path)


def test_non_numeric_coordinate_names_vertex_row(tmp_path):
    path = tmp_path / "text.ply"
    path.write_text(VERTEX_HEADER.format(fmt="ascii", count=2, extra="") + "1 2 3\n4 five 6\n")
    with pytest.raises(PlyFormatError, match="vertex row 1 has a non-numeric coordinate"):
        load_ply(path)


@pytest.mark.parametrize("binary", [False, True])
def test_non_finite_coordinate_names_vertex_row(tmp_path, binary):
    path = tmp_path / "inf.ply"
    header = VERTEX_HEADER.format(fmt="binary_little_endian" if binary else "ascii", count=3, extra="")
    rows = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, float("inf"), 9.0)]
    if binary:
        path.write_bytes(header.encode() + struct.pack("<9d", *(v for row in rows for v in row)))
    else:
        path.write_text(header + "".join("%r %r %r\n" % row for row in rows))
    with pytest.raises(PlyFormatError, match="vertex row 2 has a non-finite coordinate"):
        load_ply(path)
