import threading
import time

import pytest

from pmdef import blas
from pmdef.errors import NonFiniteError
from toys import fake_blas, recording_pool


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_on_cores_returns_the_results_in_item_order(monkeypatch, cores):
    fake_blas(monkeypatch, 1)
    monkeypatch.setattr(blas, "usable_cores", lambda: cores)

    def slow_first(i):  # early items finish last
        time.sleep(0.002 * (7 - i))
        return i * i

    assert blas.on_cores(slow_first, range(7)) == [i * i for i in range(7)]
    assert blas.on_cores(slow_first, []) == []


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_on_cores_starts_one_thread_per_core_and_at_most_one_per_item(monkeypatch, cores, n):
    fake_blas(monkeypatch, 1)
    monkeypatch.setattr(blas, "usable_cores", lambda: cores)
    started = recording_pool(monkeypatch)
    threads = set()

    def note_thread(i):
        threads.add(threading.get_ident())
        time.sleep(0.005)  # so that no thread takes every item before the others start
        return i

    assert blas.on_cores(note_thread, range(n)) == list(range(n))
    workers = min(n, cores)
    assert started == ([workers] if workers > 1 else [])
    assert len(threads) == workers
    if workers == 1:
        assert threads == {threading.get_ident()}


def test_on_cores_uses_the_cores_only_at_one_blas_thread_and_never_sets_the_count(monkeypatch):
    fake = fake_blas(monkeypatch, 4)
    monkeypatch.setattr(blas, "usable_cores", lambda: 2)
    started = recording_pool(monkeypatch)
    calls = []

    def note(i):
        calls.append((fake.count, threading.get_ident()))
        time.sleep(0.005)  # so that one pool thread does not take every item
        return -i

    assert blas.on_cores(note, range(4)) == [0, -1, -2, -3]
    assert calls == [(4, threading.get_ident())] * 4 and started == [] and fake.count == 4
    calls.clear()
    with blas.one_thread():
        assert blas.on_cores(note, range(4)) == [0, -1, -2, -3]
    assert started == [2] and {count for count, _ in calls} == {1} and fake.count == 4
    assert threading.get_ident() not in {thread for _, thread in calls}

    def failing(i):
        if i == 3:
            raise NonFiniteError("an item went non-finite")
        return fake.count

    with pytest.raises(NonFiniteError, match="an item went non-finite"), blas.one_thread():
        blas.on_cores(failing, range(5))
    assert fake.count == 4


def test_on_cores_where_the_blas_count_cannot_be_read_runs_the_items_in_order_on_the_calling_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started")

    monkeypatch.setattr(blas, "threads_getter", lambda: None)
    monkeypatch.setattr(blas, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(blas, "usable_cores", lambda: 2)
    calls = []
    with blas.one_thread() as pinned:
        assert not pinned
        assert blas.on_cores(lambda i: calls.append((i, threading.get_ident())) or -i, range(4)) == [0, -1, -2, -3]
    assert calls == [(i, threading.get_ident()) for i in range(4)]
