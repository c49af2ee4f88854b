"""The package namespace and its record types."""

from importlib import import_module

import pytest

import matula
from matula import (
    TreeParams,
    check_caterpillar_inequality,
    params,
    parse,
)


def test_every_public_name_is_the_attribute_of_its_module():
    assert matula.__all__ == list(matula._EXPORTS)
    for name, (module, attribute) in matula._EXPORTS.items():
        assert getattr(matula, name) is getattr(import_module(f"matula.{module}"), attribute)


def test_the_namespace_lists_and_binds_every_public_name():
    listed = dir(matula)
    assert "__all__" in listed
    assert set(matula.__all__) <= set(listed)
    namespace = {}
    exec("from matula import *", namespace)
    assert all(namespace[name] is getattr(matula, name) for name in matula.__all__)


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        matula.no_such_name
    from matula import cli, primes

    assert (cli.__name__, primes.__name__) == ("matula.cli", "matula.primes")


def test_sieve_backend_is_reported():
    assert matula.SIEVE_BACKEND == "python"


def test_records_are_immutable_with_fixed_fields():
    records = {
        params(parse("((*),(*,*),*)")): (
            "vertices", "leaves", "height", "max_outdegree", "outdegree_multiset", "wiener",
        ),
        check_caterpillar_inequality(2)[0]: ("k1", "k2", "lhs", "rhs", "holds", "equality"),
    }
    for record, fields in records.items():
        assert record._fields == fields
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.other = None


def test_tree_params_reads_as_before():
    p = params(parse("((*),(*,*),*)"))
    assert p == TreeParams(7, 4, 2, 3, (0, 0, 0, 0, 1, 2, 3), 46)
    assert repr(p) == (
        "TreeParams(vertices=7, leaves=4, height=2, max_outdegree=3, "
        "outdegree_multiset=(0, 0, 0, 0, 1, 2, 3), wiener=46)"
    )
