import io
import math
import tracemalloc
import xml.etree.ElementTree as ET
from array import array

import pytest

from hrsync.svgplot import _MAX_POINTS_PER_SERIES, Panel, Thinned, _decimate, write_chart


@pytest.mark.parametrize("n", [1, 2, 3999, 4000, 4001, 7999, 8000, 8001, 12345])
def test_decimation_keeps_every_stride_th_point_and_the_last(n):
    stride = max(1, math.ceil(n / _MAX_POINTS_PER_SERIES))
    keep = list(range(0, n, stride))
    if keep[-1] != n - 1:
        keep.append(n - 1)
    xs = array("d", range(n))
    ys = array("d", (-v for v in range(n)))
    kept_x, kept_y = _decimate(xs, ys)
    assert list(kept_x) == keep and list(kept_y) == [-i for i in keep]


def test_write_chart_keeps_no_copy_of_a_long_series(tmp_path):
    n = 200_000
    xs = array("d", range(n))
    ys = array("d", (math.sin(1e-3 * i) for i in range(n)))
    with open(tmp_path / "chart.svg", "w", encoding="utf-8") as handle:
        tracemalloc.start()
        try:
            write_chart(handle, [Panel("sine", "t", "y").add("y", xs, ys)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < xs.itemsize * n, peak


def test_title_labels_and_legend_are_escaped():
    panel = Panel("a & b", "x < 1", "y > 0").add("p&q<r>", [0.0, 1.0], [0.0, 1.0])
    panel.add("s", [0.0, 1.0], [1.0, 0.0])
    handle = io.StringIO()
    write_chart(handle, [panel])
    svg = handle.getvalue()
    for escaped in ("a &amp; b", "x &lt; 1", "y &gt; 0", "p&amp;q&lt;r&gt;"):
        assert f">{escaped}</text>" in svg
    texts = [e.text for e in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert {"a & b", "x < 1", "y > 0", "p&q<r>"} <= set(texts)


def chart(panel):
    handle = io.StringIO()
    write_chart(handle, [panel])
    return handle.getvalue()


@pytest.mark.parametrize("n", [3999, 4000, 4001, 7999, 8000, 8001, 12001])
def test_streamed_points_are_the_decimated_ones(n):
    # a run feeds its series block by block; the chart must not thin the kept
    # points again, though they can number 4001 (n = 8000: stride 2 and the last)
    xs = array("d", (0.01 * i for i in range(n)))
    ys = array("d", (math.sin(0.05 * i) for i in range(n)))
    whole = _decimate(xs, ys)
    svg = chart(Panel("sine", "t", "y").add("y", xs, ys))
    (polyline,) = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}polyline")
    assert len(polyline.get("points").split()) == len(whole[0])
    for size in (1, 7, 1000, 4096, n):
        thinned = Thinned(n)
        for i in range(0, n, size):
            thinned.extend(memoryview(xs)[i : i + size], memoryview(ys)[i : i + size])
        assert (thinned.xs, thinned.ys) == whole, size
        assert chart(Panel("sine", "t", "y").add_thinned("y", thinned)) == svg, size
