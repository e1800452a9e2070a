"""Every config field is a knob something reads.

A field of ``DHnswConfig`` / ``FrontDoorConfig`` that no code under
``src/repro/`` reads is a configuration the tests would have to cover for
nothing (``FrontDoorConfig.seed`` was one: validated, documented, read
nowhere).  Parsed from source with ``ast`` like ``tests/test_layering.py``:
a read is ``config.<field>`` / ``<anything>.config.<field>`` outside
``core/config.py``, or ``self.<field>`` inside a config method — other
than ``__post_init__``, whose checks keep no knob alive — that code
outside ``core/config.py`` calls.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

import pytest

import repro
from repro.core.config import DHnswConfig, FrontDoorConfig
from repro.errors import ConfigError

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent
CONFIG_FILE = SRC_ROOT / "core" / "config.py"

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


@pytest.mark.parametrize("cls,keyword", [
    (DHnswConfig, "mutation_retry_limit"),
    (DHnswConfig, "pq_bits"),
    (DHnswConfig, "tier_ewma_halflife_us"),
    (DHnswConfig, "tier_hysteresis"),
    (DHnswConfig, "vamana_degree"),
    (DHnswConfig, "batch_size"),
    (FrontDoorConfig, "seed"),
])
def test_retired_keywords_are_refused(cls, keyword):
    with pytest.raises(TypeError, match=keyword):
        cls(**{keyword: 8})


def test_vamana_cold_tier_is_refused():
    with pytest.raises(ConfigError, match="cold_tier"):
        DHnswConfig(cold_tier="vamana")
    assert DHnswConfig(cold_tier="pq").cold_tier == "pq"
