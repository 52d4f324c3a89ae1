"""Golden rendering: scatter and sweep SVGs from fixed inputs, pinned by sha256."""

import hashlib
import math
import signal
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guidance_lab.svgplot import (HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP,
                                  WIDTH, render_scatter, render_sweep)

SVG = "{http://www.w3.org/2000/svg}"


def _points(k, n):
    """``n`` fixed points of group ``k``, spread over both signs and scales."""
    return [((-1) ** i * (k + 1) * 0.37 * i, (k - 2.5) / (i + 1)) for i in range(n)]


DOCUMENTS = {
    # twelve groups: the ten-colour palette wraps
    "scatter_groups": lambda: render_scatter(
        {f"component {k}": _points(k, 5) for k in range(12)}, title="samples at omega=5"),
    "scatter_empty_group": lambda: render_scatter(
        {"component 0": _points(0, 4), "component 1": [], "component 2": _points(2, 3)}),
    "scatter_no_groups": lambda: render_scatter({}, title="samples"),
    # a 1-D mixture's samples lie on the x axis
    "scatter_1d": lambda: render_scatter(
        {"component 0": [(-1.25, 0.0), (0.5, 0.0), (2.0, 0.0)]}, title="samples at omega=1"),
    # points out of omega order: the sweep draws each line through them sorted
    "sweep_unsorted": lambda: render_sweep(
        {"adg": [(4.0, 1.7), (1.0, 1.41), (2.0, 1.5)],
         "cfg": [(8.0, 9.25), (1.0, 1.41), (4.0, 3.3)]},
        title="mean final norm vs guidance weight"),
}

# sha256 of each document: any change to the rendered bytes fails here
GOLDEN = {
    "scatter_groups":
        "37ac6847158d105f997ee269b52a94d83b4fac913aa3af284aa2fdcbeaeb7145",
    "scatter_empty_group":
        "1ed883eff3012141cdf776925a399ce336988460d9c7e489a097dec45664ccbc",
    "scatter_no_groups":
        "0a0ab2dd554f149945e071762dda297cc9530221fec296a666a76801fdf83e21",
    "scatter_1d":
        "626b67daa54021b91b6f1d6983e4109ca15860a1e711edf80332f2806895d7a9",
    "sweep_unsorted":
        "299e174e2d0bda4cf6a35cfe3247722a08b1fdba57172d061efcd857c8be14bd",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rendering_is_pinned(name):
    doc = DOCUMENTS[name]()
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == GOLDEN[name], doc


@pytest.mark.parametrize("render", [render_scatter, render_sweep])
def test_non_finite_points_are_left_out(render):
    # a NaN or infinite coordinate once reached the circles and polylines as "nan" or "inf"
    nan, inf = math.nan, math.inf
    doc = render({"c": [(nan, 1.0), (0.0, 1.0), (inf, 2.0), (2.0, -inf), (1.0, 3.0)]})
    assert doc == render({"c": [(0.0, 1.0), (1.0, 3.0)]})
    assert doc.count("<circle") == 2
    assert "nan" not in doc and "inf" not in doc


@pytest.mark.parametrize("render", [render_scatter, render_sweep])
def test_title_and_labels_are_xml_escaped(render):
    # labels can be strategy names a plotted CSV holds: raw, they broke or injected markup
    labels = ["a&b", "<b>cfg</b>", "x > 1 & y < 2"]
    doc = render({label: [(float(i), 1.0)] for i, label in enumerate(labels)}, title="<i>&</i>")
    texts = [t.text for t in ET.fromstring(doc).iter(f"{SVG}text")]
    assert texts[0] == "<i>&</i>" and texts[-3:] == labels
    assert "<b>" not in doc and "<i>" not in doc


def _timeout(signum, frame):
    raise TimeoutError("rendering took longer than its budget")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=1000, deadline=None)
@given(render=st.sampled_from([render_scatter, render_sweep]),
       points=st.lists(st.tuples(FINITE, FINITE), max_size=6))
# the span 2e308 overflowed to inf and every pixel coordinate to NaN
@example(render=render_scatter, points=[(-1e308, 0.0), (1e308, 0.0)])
def test_any_finite_points_draw_inside_the_axes(render, points):
    # large magnitudes once divided by a zero span or looped forever over ticks a step
    # below one double apart; a short budget, as that loop appended ticks without bound
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 0.25)
    try:
        doc = render({"c": points})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert "nan" not in doc and "inf" not in doc
    circles = list(ET.fromstring(doc).iter(f"{SVG}circle"))
    assert len(circles) == len(points)
    for circle in circles:
        assert MARGIN_LEFT <= float(circle.get("cx")) <= WIDTH - MARGIN_RIGHT, doc
        assert MARGIN_TOP <= float(circle.get("cy")) <= HEIGHT - MARGIN_BOTTOM, doc
