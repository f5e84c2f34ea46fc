import numpy as np
import pytest

import spans as sp
import ttmri
from ttmri import admm, tsvd
from ttmri.tensor import ComplexTensor3
from ttmri.transforms import UnitaryTransform, make_transform


def S(sid, name, start, end, parent=None, op=0, extra=None):
    return sp.Span(sid, name, start, end, parent, op, extra)


def test_self_time_of_a_span_tree():
    spans = [
        S(1, "root", 0.0, 10.0),
        S(2, "a", 1.0, 4.0, parent=1),
        S(3, "a.child", 2.0, 3.0, parent=2),
        S(4, "b", 5.0, 9.0, parent=1),
        # two children of b that ran in parallel on worker threads
        S(5, "w", 5.0, 8.0, parent=4),
        S(6, "w", 6.0, 8.5, parent=4),
        # same ids in another op are a different tree
        S(1, "root", 20.0, 21.0, op=1),
    ]
    selfs = sp.self_times(spans)
    assert selfs[(0, 1)] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[(0, 2)] == pytest.approx(3.0 - 1.0)
    assert selfs[(0, 3)] == pytest.approx(1.0)
    assert selfs[(0, 4)] == pytest.approx(4.0 - 3.5)
    assert selfs[(0, 5)] == pytest.approx(3.0)
    assert selfs[(1, 1)] == pytest.approx(1.0)
    # self times add up to the root span plus the time the parallel children overlap
    assert sum(v for (op, _), v in selfs.items() if op == 0) == pytest.approx(10.0 + 2.0)


def test_covered_clips_and_merges():
    assert sp.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert sp.covered([(-1, 2), (8, 12)], 0, 10) == pytest.approx(4.0)
    assert sp.covered([], 0, 10) == 0.0


def test_layer_values_self_total_and_unmeasured():
    spans = [
        S(1, "admm.solve", 0.0, 1.0),
        S(2, "admm.t_tsvt", 0.1, 0.5, parent=1),
        S(3, "numpy.linalg.svd", 0.2, 0.4, parent=2, extra={"matrices": 4}),
        S(4, "admm.forward", 0.6, 0.8, parent=1),
        S(5, "admm.frobenius_norm", 0.8, 0.9, parent=1),
    ]
    values = sp.layer_values(spans, iterations=2, ops=1)
    assert values["tsvd.t_tsvt_ms"] == pytest.approx((100.0, 1.0))
    assert values["tsvd.svd_ms"] == pytest.approx((100.0, 1.0))
    assert values["tsvd.svd_matrices_per_iter"] == pytest.approx((2.0, 1.0))
    assert values["admm.history_ms"] == pytest.approx((150.0, 2.0))
    assert values["admm.loop_ms"] == pytest.approx((1e3 * (1.0 - 0.4 - 0.2 - 0.1) / 2, 1.0))
    assert values["admm.relative_thresholds_ms"] == (0.0, 0.0)


def _wrap_sites():
    return {
        "admm.t_tsvt": (admm, "t_tsvt"),
        "admm.ttnn": (admm, "ttnn"),
        "tsvd.transformed_singular_values": (tsvd, "transformed_singular_values"),
        "cli.main": (ttmri.cli, "main"),
        "UnitaryTransform.apply": (UnitaryTransform, "apply"),
        "ComplexTensor3.__add__": (ComplexTensor3, "__add__"),
        "numpy.linalg.svd": (np.linalg, "svd"),
    }


def test_wrappers_installed_then_restored():
    import ttmri.cli  # noqa: F401  (the CLI module is wrapped too)

    before = {k: vars(owner)[attr] for k, (owner, attr) in _wrap_sites().items()}
    tracer = sp.Tracer()
    with tracer.installed():
        for k, (owner, attr) in _wrap_sites().items():
            assert vars(owner)[attr] is not before[k], k
            assert vars(owner)[attr].__wrapped__ is before[k], k
    for k, (owner, attr) in _wrap_sites().items():
        assert vars(owner)[attr] is before[k], k


def test_wrappers_restored_after_an_exception():
    before = admm.t_tsvt
    with pytest.raises(RuntimeError):
        with sp.Tracer().installed():
            raise RuntimeError("boom")
    assert admm.t_tsvt is before


@pytest.mark.parametrize("threads", [0, 2])
def test_traced_shrinkage_records_a_tree(threads):
    rng = np.random.default_rng(0)
    x = ComplexTensor3(rng.standard_normal((4, 6, 5)) + 1j * rng.standard_normal((4, 6, 5)))
    zero = ComplexTensor3.zeros(x.dims)
    transform = make_transform("fft", 4)
    taus = np.array([0.5, 1.0, 1.5, 2.0])
    tracer = sp.Tracer()
    with tracer.installed():
        admm.z_update(x, zero, 1.0, 1.0, transform, threads=threads)
        tracer.op = 1
        admm.t_tsvt(x, taus, transform, threads=threads)
    tracer.finish()
    by_id = {(s.op, s.sid): s for s in tracer.spans}
    svds = [s for s in tracer.spans if s.name == "numpy.linalg.svd"]
    assert len(svds) == 8
    for s in svds:
        assert by_id[(s.op, s.parent)].name == "admm.t_tsvt"
    sv = tsvd.transformed_singular_values(x, transform)
    tsvt = [s for s in tracer.spans if s.name == "admm.t_tsvt"]
    assert [s.extra["kept"] for s in tsvt] == [int((sv > 1.0).sum()), int((sv > taus[:, None]).sum())]
    assert all(s.extra["computed"] == sv.size for s in tsvt)
