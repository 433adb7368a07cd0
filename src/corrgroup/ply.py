"""Minimal PLY vertex I/O.

Reads ASCII and binary-little-endian files, extracting x/y/z (32- or
64-bit floats) from the vertex element per the header's property order;
other properties and elements are skipped. The writer emits x/y/z as
64-bit floats so coordinates round-trip exactly.
"""

from __future__ import annotations

import numpy as np

from .geom3d import PointCloud

_SCALAR_TYPES = {
    "char": "b", "int8": "b", "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h", "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i", "uint": "I", "uint32": "I",
    "float": "f", "float32": "f", "double": "d", "float64": "d",
}
_FLOAT_TYPES = {"float", "float32", "double", "float64"}


class PlyFormatError(ValueError):
    """Malformed or unsupported PLY content."""


def _parse_header(handle) -> tuple[str, list[tuple[str, int, list[tuple[str, str]]]]]:
    """Return (format, elements) where each element is (name, count, props).

    A fault names its header line, the magic line being line 1.
    """
    line = handle.readline().decode("ascii", "replace").strip()
    if line != "ply":
        raise PlyFormatError("missing 'ply' magic line")
    fmt = None
    elements: list[tuple[str, int, list[tuple[str, str]]]] = []
    for lineno, raw in enumerate(iter(handle.readline, b""), start=2):
        line = raw.decode("ascii", "replace").strip()
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        fields = line.split()
        if fields[0] == "format":
            if len(fields) < 2 or fields[1] not in ("ascii", "binary_little_endian"):
                raise PlyFormatError(f"header line {lineno}: unsupported PLY format: {line}")
            fmt = fields[1]
        elif fields[0] == "element":
            if len(fields) != 3:
                raise PlyFormatError(f"header line {lineno}: malformed element line: {line}")
            if not fields[2].isdigit():
                raise PlyFormatError(
                    f"header line {lineno}: element count must be a non-negative integer: {line}")
            elements.append((fields[1], int(fields[2]), []))
        elif fields[0] == "property":
            if not elements:
                raise PlyFormatError(f"header line {lineno}: property before any element")
            is_list = len(fields) > 1 and fields[1] == "list"
            if len(fields) != (5 if is_list else 3):
                raise PlyFormatError(f"header line {lineno}: malformed property line: {line}")
            name, _, props = elements[-1]
            if any(fields[-1] == other for _, other in props):
                raise PlyFormatError(
                    f"header line {lineno}: duplicate property '{fields[-1]}' in element '{name}'")
            props.append((fields[1], fields[-1]))
        elif fields[0] == "end_header":
            break
        else:
            raise PlyFormatError(f"header line {lineno}: unrecognized header line: {line}")
    else:
        raise PlyFormatError("unexpected end of header")
    if fmt is None:
        raise PlyFormatError("header has no format line")
    if not elements:
        raise PlyFormatError("header declares no elements")
    return fmt, elements


def _record_dtype(props: list[tuple[str, str]]) -> np.dtype:
    """The fixed-size little-endian binary record of an element."""
    try:
        formats = ["<" + _SCALAR_TYPES[ptype] for ptype, _ in props]
    except KeyError as exc:
        raise PlyFormatError(f"unknown property type {exc.args[0]}") from None
    return np.dtype({"names": [f"p{i}" for i in range(len(props))], "formats": formats})


def _xyz_columns(props: list[tuple[str, str]]) -> tuple[int, int, int]:
    names = [name for _, name in props]
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise PlyFormatError(f"vertex element lacks property '{axis}'")
        ptype = props[names.index(axis)][0]
        if ptype not in _FLOAT_TYPES:
            raise PlyFormatError(f"vertex property '{axis}' must be a float type, got {ptype}")
    return names.index("x"), names.index("y"), names.index("z")


def _parse_vertex_rows(rows: list[str], count: int, n_props: int, axes: tuple[int, int, int]) -> np.ndarray:
    """The x/y/z columns of ASCII vertex rows; a fault names its row."""
    if len(rows) < count:
        raise PlyFormatError(f"vertex element truncated at row {len(rows)}")
    ix, iy, iz = axes
    points = []
    for line in rows:
        fields = line.split()
        # len(points) is the row number, so a good file pays for no counter.
        if len(fields) < n_props:
            raise PlyFormatError(f"vertex row {len(points)} has {len(fields)} fields, expected {n_props}")
        try:
            points.append((float(fields[ix]), float(fields[iy]), float(fields[iz])))
        except ValueError:
            raise PlyFormatError(f"vertex row {len(points)} has a non-numeric coordinate") from None
    return np.array(points, dtype=np.float64).reshape(count, 3)


def load_ply(path) -> PointCloud:
    """Read the vertex element of a PLY file into a point cloud.

    One walk skips the elements before the vertex element, ASCII by line
    and binary by its fixed record size, so binary reads only the vertex
    block. Every malformed file raises :class:`PlyFormatError`, naming the
    header line or the vertex row at fault.
    """
    with open(path, "rb") as handle:
        fmt, elements = _parse_header(handle)
        names = [name for name, _, _ in elements]
        if "vertex" not in names:
            raise PlyFormatError("no vertex element")
        vertex_at = names.index("vertex")
        binary = fmt == "binary_little_endian"
        lines = None if binary else handle.read().decode("ascii", "replace").splitlines()
        skipped_rows = 0
        for _, count, props in elements[:vertex_at]:
            if not binary:
                skipped_rows += count
            elif any(ptype == "list" for ptype, _ in props):
                raise PlyFormatError("cannot skip list-typed elements preceding vertices")
            else:
                handle.seek(count * _record_dtype(props).itemsize, 1)
        _, count, props = elements[vertex_at]
        if any(ptype == "list" for ptype, _ in props):
            raise PlyFormatError("list properties in the vertex element are unsupported")
        axes = _xyz_columns(props)
        if binary:
            dtype = _record_dtype(props)
            blob = handle.read(count * dtype.itemsize)
            if len(blob) != count * dtype.itemsize:
                raise PlyFormatError("binary vertex data truncated")
            table = np.frombuffer(blob, dtype=dtype, count=count)
            points = np.column_stack([table[f"p{i}"].astype(np.float64) for i in axes])
        else:
            points = _parse_vertex_rows(lines[skipped_rows:skipped_rows + count], count, len(props), axes)
    try:
        return PointCloud(points)
    except ValueError:  # the only fault an (n, 3) float array can have
        row = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise PlyFormatError(f"vertex row {row} has a non-finite coordinate") from None


def save_ply(cloud: PointCloud, path, *, binary: bool = False) -> None:
    """Write a point cloud as a PLY vertex list (x/y/z doubles)."""
    n = len(cloud)
    header = [
        "ply",
        "format binary_little_endian 1.0" if binary else "format ascii 1.0",
        f"element vertex {n}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    with open(path, "wb") as handle:
        handle.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            handle.write(cloud.points.astype("<f8").tobytes())
        else:
            rows = ["%.17g %.17g %.17g" % (x, y, z) for x, y, z in cloud.points.tolist()]
            handle.write(("\n".join(rows) + ("\n" if rows else "")).encode("ascii"))
