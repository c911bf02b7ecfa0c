"""Self-time arithmetic, layer totals, table-build classification and the
installation of tracing wrappers in every namespace that binds a function.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans as spanlib  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, float(start), float(end), parent]


def test_self_time_subtracts_children():
    s = [span("a", 0, 10), span("b", 1, 3, 0), span("c", 5, 6, 0), span("d", 1.5, 2.5, 1)]
    assert spanlib.self_times(s) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_self_time_merges_overlap_and_clips_to_parent():
    # children overlapping each other count once; a child outliving its
    # parent is clipped to the parent's interval
    s = [span("a", 0, 10), span("b", 2, 6, 0), span("c", 4, 8, 0), span("d", 9, 12, 0)]
    assert spanlib.self_times(s)[0] == pytest.approx(10 - 6 - 1)


def test_self_time_never_negative():
    s = [span("a", 0, 1), span("b", -1, 2, 0)]
    assert spanlib.self_times(s)[0] == 0.0


def test_layer_totals_count_recursion_once():
    # the order-0 layer: refine (outer) calls recover (inner), both call stroh
    s = [span("root", 0, 20), span("order0", 1, 11, 0), span("order0", 2, 8, 1),
         span("stroh", 3, 7, 2), span("stroh", 9, 10, 1)]
    tot = spanlib.layer_totals(s)
    assert tot["order0"]["calls"] == 2
    assert tot["order0"]["s"] == pytest.approx(10.0)          # refine only
    assert tot["order0"]["self_s"] == pytest.approx(10.0 - 5.0)
    assert tot["stroh"] == {"calls": 2, "s": pytest.approx(5.0),
                            "self_s": pytest.approx(5.0)}
    assert tot["root"]["self_s"] == pytest.approx(10.0)


def test_has_ancestor():
    s = [span("cal", 0, 5), span("ladder", 1, 4, 0), span("table", 2, 3, 1),
         span("table", 6, 7)]
    assert spanlib.has_ancestor(s, 2, "cal")
    assert not spanlib.has_ancestor(s, 3, "cal")


SETTINGS = (("riccati_tol", "1e-10"),)


def test_classify_duplicates_by_content_not_identity():
    # gradient reconstruct: main, its truncation, then three calibration
    # profiles whose truncations are one constant profile
    base = ((0.9975,), (1.0002,))
    builds = [
        (1, ((1.0, 0.3), (1.0, 0.2)), SETTINGS, 1134.0),
        (2, ((1.0,), (1.0,)), SETTINGS, 1134.0),
        (3, ((0.9975, 1.0), (1.0002,)), SETTINGS, 1134.0),
        (4, base, SETTINGS, 1134.0),
        (5, ((0.9975,), (1.0002, 1.0)), SETTINGS, 1134.0),
        (6, base, SETTINGS, 1134.0),
        (7, ((0.9975, 0.4), (1.0002, 0.5)), SETTINGS, 1134.0),
        (8, base, SETTINGS, 1134.0),
    ]
    assert spanlib.classify_builds(builds) == {
        "builds": 8, "duplicates": 2, "rebuilds": 0, "distinct": 6}


def test_classify_rebuild_is_same_object_at_larger_k_max():
    main = ((1.5, 0.1, 0.05), (1.0, 0.1, 0.03))
    builds = [
        (1, main, SETTINGS, 1134.0),
        (2, ((1.5,), (1.0,)), SETTINGS, 1134.0),
        (1, main, SETTINGS, 1410.0),          # rebuild, new settings: distinct
        (3, ((1.5, 0.1), (1.0, 0.1)), SETTINGS, 1410.0),
        (9, main, SETTINGS, 1134.0),          # another object, same content
    ]
    got = spanlib.classify_builds(builds)
    assert got == {"builds": 5, "duplicates": 1, "rebuilds": 1, "distinct": 4}


def test_settings_distinguish_duplicates():
    c = ((1.0,), (1.0,))
    builds = [(1, c, (("riccati_tol", "1e-10"),), 10.0),
              (2, c, (("riccati_tol", "1e-12"),), 10.0)]
    assert spanlib.classify_builds(builds)["duplicates"] == 0


def test_tracing_reaches_from_imports_and_uninstalls():
    from lame_edge import forward, reconstruct, stroh

    import worker

    originals = {
        "forward.pairing": forward.pairing,
        "reconstruct.pairing": reconstruct.pairing,
        "reconstruct.impedance": reconstruct.impedance,
        "stroh.impedance": stroh.impedance,
        "table_init": forward.RadialDtnTable.__init__,
    }
    tracer = spanlib.Tracer("test")
    worker.install_tracing(tracer)
    try:
        # the name reconstruct binds by from-import is wrapped too
        assert reconstruct.pairing is not originals["reconstruct.pairing"]
        assert reconstruct.pairing is forward.pairing
        assert reconstruct.impedance is stroh.impedance
        reconstruct.impedance(2.0, 1.0, (1.0, 0.0, 0.0))
        assert [s[0] for s in tracer.spans] == ["stroh.impedance"]
        assert tracer.spans[0][3] == -1
    finally:
        tracer.uninstall()
    assert forward.pairing is originals["forward.pairing"]
    assert reconstruct.pairing is originals["reconstruct.pairing"]
    assert reconstruct.impedance is originals["reconstruct.impedance"]
    assert stroh.impedance is originals["stroh.impedance"]
    assert forward.RadialDtnTable.__init__ is originals["table_init"]


def test_content_key_ignores_trailing_zero_coefficients():
    from lame_edge.elastic import LameProfile

    import worker

    a = LameProfile.from_polynomial([2.0], [1.0])
    b = LameProfile.from_polynomial([2.0, 0.0], [1.0, 0.0, 0.0])
    c = LameProfile.from_polynomial([2.0, 0.1], [1.0])
    assert worker.content_key(a) == worker.content_key(b)
    assert worker.content_key(a) != worker.content_key(c)


def test_tracing_skips_a_removed_function(monkeypatch):
    from lame_edge import forward

    import worker

    monkeypatch.delattr(forward, "warm_tables")
    tracer = spanlib.Tracer("test")
    try:
        assert worker.install_tracing(tracer) == ["forward.warm_tables"]
        assert forward.pairing.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(forward.pairing, "__wrapped__")
