import pytest


@pytest.fixture(autouse=True)
def cold_builder_memo():
    """Start every test with the per-process builder memo empty, so each
    test builds what it uses, and a test that patches a builder's helper
    sees that builder run."""
    from foldlie import cli, liealg, rootsys, slodowy

    for helper in (rootsys._build_root_system, rootsys._folding_datum,
                   rootsys._fold_coinvariants, rootsys._fold_invariants,
                   liealg._build_algebra, slodowy._build_subregular_slice, cli._parser):
        helper.cache_clear()


@pytest.fixture(scope="session")
def sl4():
    from foldlie.liealg import build_algebra

    return build_algebra("sl", 4)


@pytest.fixture(scope="session")
def sp4():
    from foldlie.liealg import build_algebra

    return build_algebra("sp", 4)


@pytest.fixture(scope="session")
def so8():
    from foldlie.liealg import build_algebra

    return build_algebra("so", 8)


@pytest.fixture(scope="session")
def cd_sl4(sl4):
    from foldlie.liealg import build_chevalley

    return build_chevalley(sl4)


@pytest.fixture(scope="session")
def cd_so8(so8):
    from foldlie.liealg import build_chevalley

    return build_chevalley(so8)


@pytest.fixture(scope="session")
def fwd_a3():
    from foldlie.rootsys import folding_datum
    from foldlie.weyl import folding_weyl_data

    return folding_weyl_data(folding_datum("A3", 2))


@pytest.fixture(scope="session")
def fwd_d4_triality():
    from foldlie.rootsys import folding_datum
    from foldlie.weyl import folding_weyl_data

    return folding_weyl_data(folding_datum("D4", 3))
