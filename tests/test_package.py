"""The package namespace: every exported name resolves, none twice."""
import heatsheet


def test_star_import_and_unique_exports():
    ns = {}
    exec("from heatsheet import *", ns)
    assert set(heatsheet.__all__) <= set(ns)
    assert len(heatsheet.__all__) == len(set(heatsheet.__all__))
