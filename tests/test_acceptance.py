"""The acceptance gate of `steklovwarp verify`, run under pytest."""

from steklovwarp import acceptance


def test_all_criteria_pass():
    lines = []
    results = acceptance.run_all(seed=0, mesh=400, printer=lines.append)
    assert [r.index for r in results] == list(range(1, 11))
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    assert len(lines) == 10
