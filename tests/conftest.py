import contextlib
import io

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


@pytest.fixture(scope="session")
def cli_json():
    """``foldlie --format json <argv>`` run in process, once per argv in a
    session, as (exit code, stdout): a golden pin and a semantic check of the
    same command read one run."""
    from foldlie.cli import main

    runs = {}

    def run(argv):
        argv = tuple(argv)
        if argv not in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["--format", "json", *argv])
            runs[argv] = (code, out.getvalue())
        return runs[argv]

    return run


@pytest.fixture(scope="session")
def folding():
    """(type, order) -> ``folding_weyl_data``.  E6/2 and A7/2, whose W_h
    are the two largest enumerated groups and which several test modules
    read, are built once per session."""
    from foldlie.rootsys import folding_datum
    from foldlie.weyl import folding_weyl_data

    shared = {}

    def get(th, order):
        if (th, order) not in (("E6", 2), ("A7", 2)):
            return folding_weyl_data(folding_datum(th, order))
        if (th, order) not in shared:
            shared[th, order] = folding_weyl_data(folding_datum(th, order))
        return shared[th, order]

    return get


@pytest.fixture(scope="session")
def weyl_group(folding):
    """W(name) by ``WeylGroup.generate``; W(E6) and W(A7) are the W_h of the
    shared E6/2 and A7/2 foldings."""
    from foldlie.rootsys import build_root_system
    from foldlie.weyl import WeylGroup

    def get(name):
        if name in ("E6", "A7"):
            return folding(name, 2).wh
        return WeylGroup.generate(build_root_system(name))

    return get
