from hypothesis import settings

from nilcomm.partitions import Partition, enumerate_partitions

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")

_PARTS_CACHE: dict[int, tuple] = {}


def partitions_up_to(n_max: int):
    """All partitions of 1..n_max, cached across tests."""
    out = []
    for n in range(1, n_max + 1):
        if n not in _PARTS_CACHE:
            _PARTS_CACHE[n] = tuple(enumerate_partitions(n))
        out.extend(_PARTS_CACHE[n])
    return out


def pytest_make_parametrize_id(config, val, argname):
    if isinstance(val, Partition):
        return str(val)
    return None
