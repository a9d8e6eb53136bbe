"""Golden verifier diagnostics: one small malformed function per failure
class, with the exact ordered list of messages the verifier reports.

The verifier's messages are part of its contract (they are what a failing
pass reports), so a rewrite of how it computes predecessors or walks blocks
must keep both the messages and their order.
"""

import pytest

from repro.ir import (
    I1,
    I32,
    VOID,
    BasicBlock,
    Branch,
    Call,
    CondBranch,
    Constant,
    FunctionType,
    IRBuilder,
    Module,
    Phi,
    Return,
    VerifierReport,
    verify_function,
    verify_module,
)


def _fn(module, name="f", ret=I32, params=(I32,)):
    fn = module.create_function(name, FunctionType(ret, tuple(params)), [f"p{i}" for i in range(len(params))])
    return fn, fn.create_block("entry")


def empty_block():
    m = Module("t")
    fn, entry = _fn(m)
    dead = fn.create_block("dead")
    IRBuilder(entry).ret(Constant(I32, 0))
    assert not dead.instructions
    return m


def missing_terminator():
    m = Module("t")
    fn, entry = _fn(m)
    IRBuilder(entry).add(fn.args[0], 1)
    return m


def terminator_not_last():
    m = Module("t")
    fn, entry = _fn(m)
    b = IRBuilder(entry)
    b.ret(Constant(I32, 0))
    b.add(fn.args[0], 1)
    b.ret(Constant(I32, 1))
    return m


def phi_after_non_phi():
    m = Module("t")
    fn, entry = _fn(m)
    body = fn.create_block("body")
    IRBuilder(entry).br(body)
    b = IRBuilder(body)
    b.add(fn.args[0], 2, name="x")
    phi = Phi(I32, name="late")
    phi.add_incoming(Constant(I32, 3), entry)
    body.append(phi)
    b.ret(phi)
    return m


def wrong_parent():
    m = Module("t")
    fn, entry = _fn(m)
    b = IRBuilder(entry)
    x = b.add(fn.args[0], 1, name="x")
    b.ret(x)
    x.parent = BasicBlock("elsewhere")
    return m


def phi_duplicate_incoming():
    m = Module("t")
    fn, entry = _fn(m)
    join = fn.create_block("join")
    # Both edges of the condbr go to `join`: `entry` is one predecessor.
    entry.append(CondBranch(Constant(I1, 1), join, join))
    phi = Phi(I32, name="v")
    phi.add_incoming(Constant(I32, 1), entry)
    phi.add_incoming(Constant(I32, 2), entry)
    join.append(phi)
    join.append(Return(phi))
    return m


def phi_non_predecessor():
    m = Module("t")
    fn, entry = _fn(m)
    other = fn.create_block("other")
    join = fn.create_block("join")
    IRBuilder(entry).br(join)
    IRBuilder(other).br(other)
    phi = Phi(I32, name="v")
    phi.add_incoming(Constant(I32, 1), entry)
    phi.add_incoming(Constant(I32, 2), other)
    join.append(phi)
    join.append(Return(phi))
    return m


def phi_missing_incoming():
    m = Module("t")
    fn, entry = _fn(m)
    left = fn.create_block("left")
    right = fn.create_block("right")
    join = fn.create_block("join")
    entry.append(CondBranch(Constant(I1, 0), left, right))
    IRBuilder(left).br(join)
    IRBuilder(right).br(join)
    phi = Phi(I32, name="v")
    join.append(phi)
    join.append(Return(phi))
    return m


def foreign_operand():
    m = Module("t")
    g, g_entry = _fn(m, "g")
    gx = IRBuilder(g_entry).add(g.args[0], 5, name="gx")
    IRBuilder(g_entry).ret(gx)
    fn, entry = _fn(m)
    b = IRBuilder(entry)
    y = b.add(g.args[0], gx, name="y")
    b.ret(y)
    return m


def foreign_branch_target():
    m = Module("t")
    g, g_entry = _fn(m, "g")
    IRBuilder(g_entry).ret(Constant(I32, 0))
    fn, entry = _fn(m)
    entry.append(Branch(g_entry))
    return m


def call_arity():
    m = Module("t")
    callee, c_entry = _fn(m, "callee", params=(I32, I32))
    IRBuilder(c_entry).ret(Constant(I32, 0))
    fn, entry = _fn(m)
    call = Call(callee, [Constant(I32, 1)])
    entry.append(call)
    entry.append(Return(call))
    return m


def return_mismatch():
    m = Module("t")
    v, v_entry = _fn(m, "v", ret=VOID, params=())
    v_entry.append(Return(Constant(I32, 1)))
    fn, entry = _fn(m)
    entry.append(Return())
    return m


GOLDEN = {
    empty_block: ["f/dead: block is empty"],
    missing_terminator: ["f/entry: block does not end with a terminator"],
    terminator_not_last: ["f/entry: terminator 'ret i32 0' is not last"],
    phi_after_non_phi: [
        "f/body: phi '%late = phi i32 [ 3, %entry ]' after non-phi instruction",
    ],
    wrong_parent: [
        "f/entry: instruction '%x = add i32 %p0, 1' has wrong parent",
        "f: 'ret i32 %x' uses instruction outside this function",
    ],
    phi_duplicate_incoming: [
        "f/join: phi '%v = phi i32 [ 1, %entry ], [ 2, %entry ]' has duplicate incoming blocks",
    ],
    phi_non_predecessor: [
        "f/join: phi '%v = phi i32 [ 1, %entry ], [ 2, %other ]' references non-predecessor other",
    ],
    phi_missing_incoming: [
        "f/join: phi '%v = phi i32 ' missing incoming value for predecessor left",
        "f/join: phi '%v = phi i32 ' missing incoming value for predecessor right",
    ],
    foreign_operand: [
        "f: '%y = add i32 %p0, %gx' uses argument of another function",
        "f: '%y = add i32 %p0, %gx' uses instruction outside this function",
    ],
    foreign_branch_target: ["f: branch 'br label %entry' targets foreign block entry"],
    call_arity: ["f: call to @callee passes 1 args, expected 2"],
    return_mismatch: [
        "v: void function returns a value",
        "f: non-void function returns without a value",
    ],
}


@pytest.mark.parametrize("build", list(GOLDEN), ids=lambda b: b.__name__)
def test_golden_messages(build):
    report = verify_module(build(), raise_on_error=False)
    assert report.errors == GOLDEN[build]


def test_all_classes_in_one_function_keep_block_order():
    """Messages of several blocks come out in block order, per-block checks
    (structure, then phis, then operands) before the function's returns."""
    m = Module("t")
    fn, entry = _fn(m)
    left = fn.create_block("left")
    right = fn.create_block("right")
    join = fn.create_block("join")
    empty = fn.create_block("empty")
    entry.append(CondBranch(Constant(I1, 1), right, left))
    IRBuilder(left).br(join)
    IRBuilder(right).br(join)
    phi = Phi(I32, name="v")
    phi.add_incoming(Constant(I32, 1), empty)
    join.append(phi)
    join.append(Return())
    report = VerifierReport()
    verify_function(fn, report)
    assert report.errors == [
        "f/join: phi '%v = phi i32 [ 1, %empty ]' references non-predecessor empty",
        "f/join: phi '%v = phi i32 [ 1, %empty ]' missing incoming value for predecessor left",
        "f/join: phi '%v = phi i32 [ 1, %empty ]' missing incoming value for predecessor right",
        "f/empty: block is empty",
        "f: non-void function returns without a value",
    ]
