"""simplify-cfg: CFG cleanup.

Performs the subset of LLVM's ``simplifycfg`` that matters for this
pipeline:

* remove blocks unreachable from the entry;
* fold conditional branches whose condition is a constant;
* merge a block into its unique predecessor when that predecessor has a
  single successor;
* thread empty forwarding blocks (a block containing only an unconditional
  branch) when doing so cannot confuse phi nodes.
"""

from __future__ import annotations

from typing import Set

from repro.analysis.cfg import predecessors_map, reachable_blocks
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, CondBranch, Phi
from repro.ir.values import Constant
from repro.transforms.pass_manager import FunctionPass


class SimplifyCFG(FunctionPass):
    """Iteratively applies local CFG simplifications until a fixed point."""

    name = "simplifycfg"

    def run_on_function(self, fn: Function) -> bool:
        if fn.is_declaration():
            return False
        changed = False
        iterating = True
        while iterating:
            iterating = False
            iterating |= self._remove_unreachable(fn)
            iterating |= self._fold_constant_branches(fn)
            iterating |= self._merge_single_pred_blocks(fn)
            iterating |= self._thread_empty_blocks(fn)
            changed |= iterating
        return changed

    # -- unreachable block removal ------------------------------------------------

    @staticmethod
    def _remove_unreachable(fn: Function) -> bool:
        reachable = set(id(b) for b in reachable_blocks(fn))
        dead = [b for b in fn.blocks if id(b) not in reachable]
        if not dead:
            return False
        dead_ids = set(id(b) for b in dead)
        # Remove phi entries that come from dead predecessors.
        for block in fn.blocks:
            if id(block) in dead_ids:
                continue
            for phi in block.phis():
                for pred in list(phi.incoming_blocks):
                    if id(pred) in dead_ids:
                        phi.remove_incoming(pred)
        # Drop uses inside dead blocks so values defined elsewhere don't keep
        # phantom use entries, then delete the blocks.
        for block in dead:
            for inst in list(block.instructions):
                if inst.is_used():
                    # Users must also be dead (SSA dominance) — clear them first.
                    for user, _ in list(inst.uses):
                        user.drop_all_operands()
                inst.drop_all_operands()
            block.instructions.clear()
            fn.remove_block(block)
        return True

    # -- constant branch folding -----------------------------------------------------

    @staticmethod
    def _fold_constant_branches(fn: Function) -> bool:
        changed = False
        for block in fn.blocks:
            term = block.terminator
            if isinstance(term, CondBranch) and isinstance(term.condition, Constant):
                taken = term.true_target if term.condition.value != 0 else term.false_target
                not_taken = term.false_target if term.condition.value != 0 else term.true_target
                if not_taken is not taken:
                    for phi in not_taken.phis():
                        if block in phi.incoming_blocks:
                            phi.remove_incoming(block)
                block.remove_instruction(term)
                term.drop_all_operands()
                block.append(Branch(taken))
                changed = True
            elif isinstance(term, CondBranch) and term.true_target is term.false_target:
                target = term.true_target
                block.remove_instruction(term)
                term.drop_all_operands()
                block.append(Branch(target))
                changed = True
        return changed

    # -- merging ------------------------------------------------------------------------

    @staticmethod
    def _merge_single_pred_blocks(fn: Function) -> bool:
        """Merge ``succ`` into ``pred`` when pred has one successor and succ one predecessor."""
        changed = False
        # A merge hands succ's out-edges to its only predecessor, so every
        # remaining block keeps the same number of distinct predecessors (a
        # list may still name the merged block instead of the block it went
        # into): one map built before the sweep serves the whole sweep.
        preds = predecessors_map(fn)
        merged: Set[int] = set()
        for block in list(fn.blocks):
            if id(block) in merged:
                continue
            term = block.terminator
            if not isinstance(term, Branch):
                continue
            succ = term.target
            if succ is block or succ is fn.entry_block:
                continue
            # `block` branches to succ, so one distinct predecessor is `block`.
            if len({id(p) for p in preds[succ]}) != 1:
                continue
            # Fold single-predecessor phis, then splice instructions.
            for phi in list(succ.phis()):
                value = phi.incoming_value_for(block)
                phi.replace_all_uses_with(value)
                phi.erase_from_parent()
            block.remove_instruction(term)
            term.drop_all_operands()
            for inst in list(succ.instructions):
                succ.remove_instruction(inst)
                block.append(inst)
            # Phis in the successors of succ must now name `block` as predecessor.
            for next_succ in block.successors():
                next_succ.replace_phi_uses_of_block(succ, block)
            fn.remove_block(succ)
            merged.add(id(succ))
            changed = True
        return changed

    # -- empty block threading ----------------------------------------------------------

    @staticmethod
    def _thread_empty_blocks(fn: Function) -> bool:
        """Bypass blocks that only contain an unconditional branch."""
        changed = False
        threaded: Set[int] = set()
        for block in list(fn.blocks):
            if block is fn.entry_block or id(block) in threaded:
                continue
            if len(block.instructions) != 1:
                continue
            term = block.terminator
            if not isinstance(term, Branch):
                continue
            target = term.target
            if target is block:
                continue
            preds = block.predecessors()
            if not preds:
                continue
            # Threading is unsafe if the target has phis and any predecessor
            # already branches to the target (duplicate incoming edge) or if
            # the phi would need different values per predecessor.
            if target.phis():
                conflict = False
                for pred in preds:
                    if target in pred.successors():
                        conflict = True
                        break
                if conflict:
                    continue
            for pred in preds:
                pred_term = pred.terminator
                if pred_term is None:
                    continue
                pred_term.replace_successor(block, target)  # type: ignore[attr-defined]
            for phi in target.phis():
                value = phi.incoming_value_for(block)
                phi.remove_incoming(block)
                for pred in preds:
                    phi.add_incoming(value, pred)
            term.drop_all_operands()
            block.instructions.clear()
            fn.remove_block(block)
            threaded.add(id(block))
            changed = True
        return changed
