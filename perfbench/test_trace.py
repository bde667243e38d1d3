"""Self-time arithmetic of the span recorder on synthetic call trees.

Run with ``python3 -m pytest perfbench``.
"""

import pytest

from spans import Recorder, _spanned, self_time_balance


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_nested_self_times():
    # cli.main [0, 10] encloses modal.leading_eigs [1, 7], which encloses
    # modal.assemble_dense [2, 3] and fields.cross [4, 6]; then a second
    # root span fields.cross [12, 13] and unspanned time up to 15.
    clock = FakeClock()
    rec = Recorder(clock)
    rec.open("cli.main")
    clock.advance(1)
    rec.open("modal.leading_eigs")
    clock.advance(1)
    rec.open("modal.assemble_dense")
    clock.advance(1)
    rec.close()
    clock.advance(1)
    rec.open("fields.cross")
    clock.advance(2)
    rec.close()
    clock.advance(1)
    rec.close()
    clock.advance(3)
    rec.close()
    clock.advance(2)
    rec.open("fields.cross")
    clock.advance(1)
    rec.close()
    clock.advance(2)
    wall = clock.now

    assert rec.self_s["cli.main"] == 10 - 6
    assert rec.self_s["modal.leading_eigs"] == 6 - 1 - 2
    assert rec.self_s["modal.assemble_dense"] == 1
    assert rec.self_s["fields.cross"] == 2 + 1
    assert rec.calls["fields.cross"] == 2
    assert rec.root_s == 11
    layers = rec.layer_self_s()
    assert layers["cli"] == 4 and layers["modal"] == 4 and layers["fields"] == 3
    assert sum(layers.values()) + (wall - rec.root_s) == wall
    assert self_time_balance(rec, wall) == 0.0


def test_wrapper_closes_span_on_exception():
    clock = FakeClock()
    rec = Recorder(clock)

    def fails():
        clock.advance(2)
        raise RuntimeError

    with pytest.raises(RuntimeError):
        _spanned(rec, "glue.check_catalog", fails)()
    assert rec.self_s["glue.check_catalog"] == 2
    assert rec.root_s == 2 and not rec.inside("glue.check_catalog")


def test_same_layer_nesting_counts_once():
    clock = FakeClock()
    rec = Recorder(clock)
    rec.open("bloch.concentration_sweep")
    clock.advance(1)
    rec.open("bloch.box_mass")
    assert rec.inside("bloch.concentration_sweep")
    clock.advance(5)
    rec.close()
    rec.close()
    assert rec.layer_self_s()["bloch"] == 6
    assert rec.self_s["bloch.box_mass"] == 5
