"""Every knob is one something reads, and one something sets.

Two censuses, parsed from source with ``ast`` like
``tests/test_layering.py``.

*Read.*  A field of ``DHnswConfig`` / ``FrontDoorConfig`` that no code
under ``src/repro/`` reads is a configuration the tests would have to
cover for nothing (``FrontDoorConfig.seed`` was one: validated,
documented, read nowhere).  A read is ``config.<field>`` /
``<anything>.config.<field>`` outside ``core/config.py``, or
``self.<field>`` inside a config method — other than ``__post_init__``,
whose checks keep no knob alive — that code outside ``core/config.py``
calls.

*Set.*  A field or keyword of a settable surface (``SURFACES``) that
only unit tests ever change is a code path no deployment, benchmark or
example runs (``HnswParams.extend_candidates`` was one, with the whole
Algorithm 4 extension branch behind it).  Every one must get a
non-default value somewhere under ``src/``, ``benchmarks/`` or
``examples/``: a call keyword of that name, a positional argument of a
call to the surface, or a string dict key (the spine's workload tables
are dicts).  A literal equal to the surface's default does not count.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib

import pytest

import repro
from repro.core.cache import ClusterCache
from repro.core.client import DHnswClient
from repro.core.config import DHnswConfig, FrontDoorConfig
from repro.frontdoor.admission import TenantPolicy
from repro.hnsw.params import HnswParams
from repro.rdma.compute_node import ComputeNode
from repro.transport.retry import RetryingTransport

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent
CONFIG_FILE = SRC_ROOT / "core" / "config.py"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Only the front door is handed a ``FrontDoorConfig``; everything else
#: that says ``config`` means the deployment's ``DHnswConfig``.
FRONTDOOR_FILES = sorted((SRC_ROOT / "frontdoor").rglob("*.py"))
DEPLOYMENT_FILES = [path for path in sorted(SRC_ROOT.rglob("*.py"))
                    if path != CONFIG_FILE and path not in FRONTDOOR_FILES]

#: Fields exempt from the rule.  None: ``batch_size``, the last one
#: (set by every harness, read by nothing), is retired.
UNREAD: set[str] = set()


def loaded_attributes(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node


def is_config(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "config"
            or isinstance(node, ast.Attribute) and node.attr == "config")


def fields_read(cls, paths) -> set[str]:
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in paths]
    attributes = [node for tree in trees for node in loaded_attributes(tree)]
    read = {node.attr for node in attributes if is_config(node.value)}
    called = {node.attr for node in attributes}
    config_tree = ast.parse(CONFIG_FILE.read_text())
    (class_def,) = [node for node in config_tree.body
                    if isinstance(node, ast.ClassDef)
                    and node.name == cls.__name__]
    for method in class_def.body:
        if (isinstance(method, ast.FunctionDef) and method.name in called
                and method.name != "__post_init__"):
            read |= {node.attr for node in loaded_attributes(method)
                     if isinstance(node.value, ast.Name)
                     and node.value.id == "self"}
    return read


@pytest.mark.parametrize("cls,paths,unread", [
    (DHnswConfig, DEPLOYMENT_FILES, UNREAD),
    (FrontDoorConfig, FRONTDOOR_FILES, set()),
])
def test_every_field_is_read_outside_the_config_module(cls, paths, unread):
    assert paths
    names = {field.name for field in dataclasses.fields(cls)}
    assert names - fields_read(cls, paths) == unread


#: The surfaces whose keywords are knobs: the configs, the HNSW
#: parameters, and the constructors callers tune.
SURFACES = (DHnswConfig, FrontDoorConfig, TenantPolicy, HnswParams,
            DHnswClient, RetryingTransport, ClusterCache)

#: Knobs allowed to stay test-only.  None: ``HnswParams.metric``, the
#: last one (only tests asked for cosine or inner product), is retired.
UNSET: set[str] = set()

#: Retired spellings a surface still accepts as keywords, at one value
#: only (any other raises ``ConfigError``): not knobs, so not counted.
#: ``search_workers`` sized the retired search worker pool; the spine
#: still spells it out at 1.
ACCEPTED_AT_ONE_VALUE = {"DHnswConfig.search_workers"}


def knob_defaults(cls) -> dict[str, object]:
    """``cls``'s keyword parameters and their defaults."""
    return {name: parameter.default
            for name, parameter in inspect.signature(cls).parameters.items()
            if parameter.default is not parameter.empty
            and f"{cls.__name__}.{name}" not in ACCEPTED_AT_ONE_VALUE}


def test_one_value_spellings_are_keywords_not_fields():
    surfaces = {cls.__name__: cls for cls in SURFACES}
    for qualified in ACCEPTED_AT_ONE_VALUE:
        owner, name = qualified.split(".")
        cls = surfaces[owner]
        assert name in inspect.signature(cls).parameters
        assert name not in {field.name for field in dataclasses.fields(cls)}


def settings(roots) -> tuple[list[tuple[str, ast.expr]],
                             list[tuple[str, int, ast.expr]]]:
    """Every ``(keyword, value)`` a call or string dict key under
    ``roots`` sets, and every ``(callee, position, value)`` of a call's
    positional arguments."""
    named, positional = [], []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(),
                                           filename=str(path))):
                if isinstance(node, ast.Call):
                    named.extend((keyword.arg, keyword.value)
                                 for keyword in node.keywords
                                 if keyword.arg is not None)
                    callee = getattr(node.func, "id",
                                     getattr(node.func, "attr", None))
                    positional.extend(
                        (callee, index, value)
                        for index, value in enumerate(node.args)
                        if not isinstance(value, ast.Starred))
                elif isinstance(node, ast.Dict):
                    named.extend((key.value, value)
                                 for key, value in zip(node.keys, node.values)
                                 if isinstance(key, ast.Constant)
                                 and isinstance(key.value, str))
    return named, positional


def sets_other_than(value: ast.expr, default: object) -> bool:
    """Does ``value`` set something other than ``default``?  Only a
    literal can be seen to equal it."""
    try:
        return ast.literal_eval(value) != default
    except (ValueError, TypeError):
        return True


def unset_knobs(roots, surfaces) -> set[str]:
    """``Surface.knob`` names nothing under ``roots`` sets to a
    non-default value."""
    named, positional = settings(roots)
    unset = set()
    for cls in surfaces:
        order = list(inspect.signature(cls).parameters)
        for name, default in knob_defaults(cls).items():
            values = [value for keyword, value in named if keyword == name]
            # By position, a variable of the knob's own name is handed
            # on, not chosen (a decoder rebuilding the object from bytes).
            values += [value for callee, index, value in positional
                       if callee == cls.__name__ and index < len(order)
                       and order[index] == name
                       and getattr(value, "id", None) != name]
            if not any(sets_other_than(value, default) for value in values):
                unset.add(f"{cls.__name__}.{name}")
    return unset


def test_every_knob_is_set_outside_the_tests():
    roots = [REPO_ROOT / "src", REPO_ROOT / "benchmarks",
             REPO_ROOT / "examples"]
    assert all(root.is_dir() for root in roots)
    assert unset_knobs(roots, SURFACES) - UNSET == set()


def test_the_census_counts_keywords_positions_and_dict_keys(tmp_path):
    """Guard the walker itself on a caller it can be checked against."""
    (tmp_path / "caller.py").write_text(
        "HnswParams(m=4, ef_construction=200)\n"  # 200 is the default
        "TenantPolicy(2.0)\n"
        "overrides = {'seed': 3}\n")
    assert unset_knobs([tmp_path], [HnswParams, TenantPolicy]) == {
        "HnswParams.ef_construction", "HnswParams.max_level",
        "TenantPolicy.rate_qps"}


@pytest.mark.parametrize("cls,keyword", [
    (DHnswConfig, "mutation_retry_limit"),
    (DHnswConfig, "pq_bits"),
    (DHnswConfig, "tier_ewma_halflife_us"),
    (DHnswConfig, "tier_hysteresis"),
    (DHnswConfig, "vamana_degree"),
    (DHnswConfig, "batch_size"),
    (DHnswConfig, "reclaim_eager"),
    (DHnswConfig, "sub_params"),
    (DHnswConfig, "cold_tier"),
    (DHnswConfig, "rerank_depth"),
    (DHnswConfig, "pq_subspaces"),
    (FrontDoorConfig, "seed"),
    (TenantPolicy, "burst"),
    (TenantPolicy, "slo_us"),
    (HnswParams, "extend_candidates"),
    (HnswParams, "keep_pruned_connections"),
    (HnswParams, "metric"),
    (ClusterCache, "release"),
    (ComputeNode, "dram_budget_bytes"),
])
def test_retired_keywords_are_refused(cls, keyword):
    with pytest.raises(TypeError, match=keyword):
        cls(**{keyword: 8})


def test_vamana_cold_tier_is_refused():
    """The cold tier is retired: no value of ``cold_tier`` is a knob."""
    for value in ("vamana", "pq", "off"):
        with pytest.raises(TypeError, match="cold_tier"):
            DHnswConfig(cold_tier=value)
