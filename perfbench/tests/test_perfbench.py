"""Tests of the benchmark itself: its input generator, its answer check,
its layer attribution and its host-speed rescaling."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import json  # noqa: E402
import time  # noqa: E402

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def _files(workload, tmp):
    qs = workloads.materialize(workloads.questions(workload), tmp)
    return {argv[2]: Path(argv[2]).read_text() for _, _, argv in qs
            if not argv[2].startswith("catalog:")}


def test_generator_is_deterministic(tmp_path):
    for workload in workloads.WORKLOADS:
        a = _files(workload, tmp_path / workload / "a")
        b = _files(workload, tmp_path / workload / "b")
        assert a and list(a.values()) == list(b.values())


def test_wrong_reference_answer_is_an_error(cli, tmp_path):
    qs = [q for q in workloads.materialize(workloads.catalog_questions(), tmp_path)
          if q[0] == "check"][:2]
    good = run.Measurement(qs, REFERENCE)
    for i in range(len(qs)):
        good.ask(cli, i)
    assert (good.attempted, good.failed) == (2, 0)

    key = run.reference_key(qs[0][0], qs[0][1])
    wrong = dict(REFERENCE, **{key: dict(REFERENCE[key], verdict="violations found")})
    bad = run.Measurement(qs, wrong)
    for i in range(len(qs)):
        bad.ask(cli, i)
    assert bad.failed / bad.attempted > 0
    assert bad.mismatches[0]["question"] == key


def test_span_eliminations_count_as_span_time():
    from qlca import poly

    m = poly.RatMatrix(2, 3, {(0, 0): 1, (1, 1): 1, (1, 2): 2})
    tr = Tracer()
    with tr:
        assert poly.span_rank([[1, 0], [0, 1], [1, 1]]) == 2
        assert poly.span_coordinates([[1, 0], [0, 1]], [3, 4]) == (3, 4)
    layers = tr.metrics(0, 1)
    assert layers["poly.elim_calls"][0] == 0
    assert layers["poly.elim_s"][0] == 0
    assert layers["poly.span_s"][0] > 0
    with tr:
        assert len(poly.nullspace_basis(m)) == 1
    layers = tr.metrics(0, 2)
    assert layers["poly.elim_calls"][0] == 0.5
    assert layers["poly.system_rows"][0] == 1
    assert layers["poly.nullity"][0] == 0.5
    assert layers["poly.elim_s"][0] > 0
    assert not hasattr(poly.nullspace_basis, "__wrapped__")  # removed on exit


def test_raising_question_is_a_failed_answer():
    class Broken:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    m = run.Measurement([("check", "vir", ["--json", "check", "catalog:vir"])], REFERENCE)
    m.ask(Broken, 0)
    assert (m.attempted, m.failed) == (1, 1)
    assert m.mismatches[0]["got"] == {"exit": "raised RuntimeError: boom"}


def test_rescale_takes_out_probe_time_and_host_speed():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_PROBE_S
    # probes twice as slow as the reference, one of them inside [10, 12]
    speed.starts = [9.5, 10.5, 12.5, 30.0]
    speed.durations = [2 * ref, 2 * ref, 2 * ref, 8 * ref]
    assert speed.rescale(10.0, 12.0) == pytest.approx((2.0 - 2 * ref) / 2)
    # no probe near the span: all probes set the speed
    assert speed.rescale(20.0, 21.0) == pytest.approx(1 / 3.5)


def test_trimmed_mean_leaves_out_each_tenth():
    assert hostspeed.trimmed_mean([1, 2, 3]) == 2
    assert hostspeed.trimmed_mean([100] + [2] * 8 + [-100]) == 2


def test_probe_runs_while_entered():
    speed = hostspeed.HostSpeed()
    with speed:
        end = time.perf_counter() + 5 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
    n = len(speed.durations)
    assert n >= 2 and all(d > 0 for d in speed.durations)
    time.sleep(2 * hostspeed.PERIOD_S)
    assert len(speed.durations) == n  # the timer is off after exit
