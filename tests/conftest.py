import pytest

from qnc4 import instances, netgraph
from qnc4.qcompiler import compile_protocol


@pytest.fixture(scope="session")
def butterfly_compiled():
    net, proto = instances.bundled("butterfly")
    d3, _ = netgraph.normalize_to_d3(net, proto)
    return compile_protocol(d3)


@pytest.fixture(scope="session")
def diamond_compiled():
    net, proto = instances.bundled("two-to-one-diamond")
    d3, _ = netgraph.normalize_to_d3(net, proto)
    return compile_protocol(d3)
