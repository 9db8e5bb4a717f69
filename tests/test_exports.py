import cyclomac


def test_every_exported_name_resolves():
    missing = [name for name in cyclomac.__all__
               if not hasattr(cyclomac, name)]
    assert missing == []
    assert len(set(cyclomac.__all__)) == len(cyclomac.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from cyclomac import *", namespace)
    assert set(cyclomac.__all__) <= set(namespace)
