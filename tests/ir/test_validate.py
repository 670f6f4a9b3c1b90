"""Unit tests for the IR verifier (repro.ir.validate)."""

import pytest

from repro.ir import (
    BasicBlock,
    Branch,
    Call,
    Exit,
    Function,
    Jump,
    Module,
    Switch,
    ValidationError,
    validate_module,
)


def build(blocks_main, extra_functions=()):
    funcs = [Function("main", blocks_main), *extra_functions]
    return Module("m", funcs, entry="main").seal()


def test_valid_module_passes():
    m = build([BasicBlock("e", 1, Exit())])
    assert validate_module(m) == []


def test_unsealed_module_rejected():
    m = Module("m", [Function("main", [BasicBlock("e", 1, Exit())])], entry="main")
    with pytest.raises(ValidationError):
        validate_module(m)


def test_unknown_local_target():
    m = build([BasicBlock("e", 1, Jump("missing"))])
    with pytest.raises(ValidationError, match="unknown block"):
        validate_module(m)


def test_unknown_callee():
    m = build([
        BasicBlock("e", 1, Call("ghost", "out")),
        BasicBlock("out", 1, Exit()),
    ])
    with pytest.raises(ValidationError, match="unknown function"):
        validate_module(m)


def test_branch_probability_range():
    m = build([
        BasicBlock("e", 1, Branch("a", "b", taken_prob=1.5)),
        BasicBlock("a", 1, Exit()),
        BasicBlock("b", 1, Exit()),
    ])
    with pytest.raises(ValidationError, match="probability"):
        validate_module(m)


def test_phase_prob_requires_period():
    m = build([
        BasicBlock("e", 1, Branch("a", "b", 0.5, phase_prob=0.9, phase_period=0)),
        BasicBlock("a", 1, Exit()),
        BasicBlock("b", 1, Exit()),
    ])
    with pytest.raises(ValidationError, match="phase_period"):
        validate_module(m)


def test_switch_weights_validated():
    m = build([
        BasicBlock("e", 1, Switch(("a", "b"), (0.0, 0.0))),
        BasicBlock("a", 1, Exit()),
        BasicBlock("b", 1, Exit()),
    ])
    with pytest.raises(ValidationError, match="weights"):
        validate_module(m)


def test_duplicate_function_names_rejected():
    # Function/Module constructors catch duplicates at build time; the
    # verifier must also catch modules mutated after construction.
    m = build([BasicBlock("e", 1, Exit())])
    m.functions.append(Function("main", [BasicBlock("e2", 1, Exit())]))
    m._sealed = False
    m.seal()
    with pytest.raises(ValidationError, match="duplicate function name"):
        validate_module(m)


def test_duplicate_block_names_rejected():
    m = build([BasicBlock("e", 1, Exit())])
    m.function("main").blocks.append(BasicBlock("e", 1, Exit()))
    m._sealed = False
    m.seal()
    with pytest.raises(ValidationError, match="duplicate block name"):
        validate_module(m)


def test_unreachable_blocks_are_warnings_not_errors():
    m = build([
        BasicBlock("e", 1, Exit()),
        BasicBlock("island", 2, Exit()),
    ])
    warnings = validate_module(m)
    assert any("island" in w for w in warnings)
