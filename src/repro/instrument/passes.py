"""Counter-injection passes: naive, flow-based and loop-based (paper §3.5-3.6).

All three passes share the same skeleton: build the CFG of every function,
attribute to each basic block the total weight of its instructions, decide
*where* increments go (this is where the optimisation levels differ), then
splice stack-neutral increment sequences

    global.get $c · i64.const w · i64.add · global.set $c

into the bodies.  The counter global is appended at a fresh index — since
WebAssembly ``global.set`` operands are compile-time immediates, pre-existing
workload code cannot name it, which is the paper's isolation argument for why
the workload cannot tamper with its own accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.instrument.cfg import EXIT, BasicBlock, ControlFlowGraph, build_cfg
from repro.instrument.weights import UNIT_WEIGHTS, WeightTable
from repro.wasm.instructions import Instr
from repro.wasm.interpreter import build_structure_map
from repro.wasm.module import Export, Function, Global, Module
from repro.wasm.types import GlobalType, ValType

#: Export name under which the counter global is published.
COUNTER_EXPORT = "__acctee_counter"


@dataclass
class LoopHoist:
    """One loop whose per-iteration increment was hoisted past the loop exit."""

    func_index: int
    loop_index: int
    variable: int  # local index of the loop variable
    stride: int
    increasing: bool
    valtype: ValType  # type of the loop variable (i32 or i64)
    per_iteration_weight: int
    constant_weight: int  # weight charged once per region entry (pattern B header)
    capture_local: int  # fresh local storing the variable's pre-loop value
    capture_point: int  # instruction index before which the capture is inserted
    payoff_point: int  # instruction index before which the reconstruction goes


@dataclass
class InstrumentationResult:
    """The instrumented module plus everything the evidence needs to describe."""

    module: Module
    level: str
    weight_table: WeightTable
    counter_global_index: int
    increments_emitted: int
    increments_naive: int
    hoisted_loops: int

    @property
    def counter_export(self) -> str:
        return COUNTER_EXPORT


# ---------------------------------------------------------------------------
# Flow-based optimisation
# ---------------------------------------------------------------------------


def _flow_optimise(
    cfg: ControlFlowGraph, increments: dict[int, int], frozen: set[int]
) -> None:
    """Apply the two Fig. 4 transformations to the per-block increments.

    ``frozen`` blocks (loop-hoisted ones) take part in neither direction.
    Both transformations preserve the invariant that the total increment
    charged along any execution path is unchanged.
    """
    blocks = cfg.blocks
    changed = True
    while changed:
        changed = False

        # (1) fold a block into its successors when every successor can only
        # be entered from this block and control always continues to one of
        # them (no EXIT successor, no self-loop).
        for block in blocks.values():
            if block.index in frozen or increments.get(block.index, 0) == 0:
                continue
            succs = set(block.successors)
            if not succs or EXIT in succs or block.index in succs:
                continue
            if any(s in frozen for s in succs):
                continue
            if any(set(blocks[s].predecessors) != {block.index} for s in succs):
                continue
            amount = increments[block.index]
            for s in succs:
                increments[s] = increments.get(s, 0) + amount
            increments[block.index] = 0
            changed = True

        # (2) push the minimum over a join's predecessors into the join:
        # sound when every predecessor's *only* successor is the join.
        for block in blocks.values():
            if block.index in frozen:
                continue
            preds = set(block.predecessors)
            if len(preds) < 2 or block.index == cfg.entry or block.index in preds:
                continue
            if any(p in frozen for p in preds):
                continue
            if any(set(blocks[p].successors) != {block.index} for p in preds):
                continue
            minimum = min(increments.get(p, 0) for p in preds)
            if minimum == 0:
                continue
            for p in preds:
                increments[p] -= minimum
            increments[block.index] = increments.get(block.index, 0) + minimum
            changed = True


# ---------------------------------------------------------------------------
# Loop-based optimisation
# ---------------------------------------------------------------------------


def _relative_depths(body: list[Instr], start: int, end: int) -> list[int]:
    """Control depth of each instruction in body[start:end] relative to start.

    Depth 0 instructions execute exactly once per pass through the region;
    instructions inside ``if``/``else`` arms are deeper.  Conventions match
    the interpreter's visit semantics: the ``if`` marker and each construct's
    ``end`` marker are at the *outer* depth (always visited), while ``else``
    belongs to the then-arm it terminates.
    """
    depths: list[int] = []
    depth = 0
    for i in range(start, end):
        name = body[i].name
        if name == "end":
            depth = max(0, depth - 1)
            depths.append(depth)
        elif name in ("if", "block", "loop"):
            depths.append(depth)
            depth += 1
        else:  # 'else' stays at arm depth
            depths.append(depth)
    return depths


def _top_level_weight(
    body: list[Instr], start: int, end: int, weights: WeightTable
) -> int:
    """Weight of the control-flow-independent (depth-0) instructions."""
    depths = _relative_depths(body, start, end)
    return sum(
        weights.weight(body[start + k].name)
        for k, d in enumerate(depths)
        if d == 0
    )


def _find_loop_variable(
    body: list[Instr], start: int, end: int, func: Function, module: Module
) -> tuple[int, int, bool, ValType] | None:
    """Find the loop variable in body[start:end] per the paper's heuristic.

    Looks for exactly one write (``local.set``) to some local preceded by the
    pattern ``local.get v · const K · add|sub``, with the whole pattern on
    the always-executed (depth-0) path; any local written more than once —
    or written through ``local.tee`` — disqualifies itself.  Returns
    (local index, stride, increasing, valtype) or None.
    """
    depths = _relative_depths(body, start, end)
    writes: dict[int, list[int]] = {}
    for i in range(start, end):
        if body[i].name in ("local.set", "local.tee"):
            writes.setdefault(body[i].args[0], []).append(i)

    functype = module.types[func.type_index]
    local_types = tuple(functype.params) + tuple(func.locals)

    candidates: list[tuple[int, int, bool, ValType]] = []
    for var, positions in writes.items():
        if len(positions) != 1:
            continue
        i = positions[0]
        if body[i].name != "local.set":
            continue
        if i - 3 < start:
            continue
        # the whole get/const/op/set pattern must run on every iteration
        if any(depths[j - start] != 0 for j in range(i - 3, i + 1)):
            continue
        get, const, op = body[i - 3], body[i - 2], body[i - 1]
        if get.name != "local.get" or get.args[0] != var:
            continue
        vt = local_types[var]
        if vt not in (ValType.I32, ValType.I64):
            continue
        if const.name != f"{vt.value}.const":
            continue
        if op.name == f"{vt.value}.add":
            increasing = True
        elif op.name == f"{vt.value}.sub":
            increasing = False
        else:
            continue
        stride = const.args[0]
        if stride == 0 or stride >= 1 << (vt.bits - 1):
            continue  # zero or negative-looking strides are not safe to invert
        candidates.append((var, stride, increasing, vt))
    if not candidates:
        return None
    # any qualifying variable counts iterations exactly (written once per
    # iteration on the depth-0 path); prefer the smallest stride to minimise
    # wrap-around exposure
    return min(candidates, key=lambda c: (c[1], c[0]))


def _find_hoistable_loops(
    module: Module,
    func_index: int,
    cfg: ControlFlowGraph,
    structs,
    weight_table: WeightTable,
) -> list[LoopHoist]:
    """Identify innermost loops matching the two supported shapes.

    Pattern A (do-while): the only branch in the region is a backward
    ``br_if 0``; the depth-0 instructions from the ``loop`` marker through
    that branch run once per iteration.

    Pattern B (while): a single exiting ``br_if d`` (d >= 1) targeting an
    enclosing *block*, followed by the body and a backward ``br 0``; the
    header runs n+1 times and the body n times.  The reconstruction code is
    placed at the branch target (the enclosing block's ``end``), which the
    CFG must show is reachable only through this exit.

    Loop bodies may contain ``if``/``else`` constructs: only the control-
    flow-independent (depth-0) portion is hoisted, and the conditional arms
    keep their ordinary per-block increments — this is exactly the paper's
    "only applies to control-flow independent instructions inside the loop
    body" restriction.
    """
    body = cfg.body
    func = module.funcs[func_index]
    hoists: list[LoopHoist] = []

    for loop_index, info in structs.items():
        if body[loop_index].name != "loop":
            continue
        end_index = info.end
        region = body[loop_index + 1 : end_index]
        # innermost loops only; conditionals are fine, nested loops/blocks
        # and calls are not
        if any(i.name in ("block", "loop", "call", "call_indirect") for i in region):
            continue
        depths = _relative_depths(body, loop_index + 1, end_index)
        branches = [
            (loop_index + 1 + k, instr)
            for k, instr in enumerate(region)
            if instr.name in ("br", "br_if", "br_table", "return", "unreachable")
        ]
        # every branch must be on the always-executed path
        if any(depths[pos - (loop_index + 1)] != 0 for pos, _ in branches):
            continue

        hoist = None
        if len(branches) == 1:
            pos, instr = branches[0]
            if instr.name == "br_if" and instr.args[0] == 0:
                hoist = _try_pattern_a(
                    module, func, func_index, cfg, weight_table,
                    loop_index, end_index, pos,
                )
        elif len(branches) == 2:
            (pos1, b1), (pos2, b2) = branches
            if (
                b1.name == "br_if"
                and b1.args[0] >= 1
                and b2.name == "br"
                and b2.args[0] == 0
                and pos2 == end_index - 1
            ):
                hoist = _try_pattern_b(
                    module, func, func_index, cfg, structs, weight_table,
                    loop_index, end_index, pos1,
                )
        if hoist is not None:
            hoists.append(hoist)
    return hoists


def _try_pattern_a(
    module: Module,
    func: Function,
    func_index: int,
    cfg: ControlFlowGraph,
    weights: WeightTable,
    loop_index: int,
    end_index: int,
    backedge: int,
) -> LoopHoist | None:
    body = cfg.body
    found = _find_loop_variable(body, loop_index + 1, backedge, func, module)
    if found is None:
        return None
    var, stride, increasing, vt = found
    # the per-iteration segment: the depth-0 instructions from the loop
    # marker through the backward br_if inclusive
    per_iter = weights.weight("loop") + _top_level_weight(
        body, loop_index + 1, backedge + 1, weights
    )
    capture_local = _fresh_local(module, func, vt)
    return LoopHoist(
        func_index=func_index,
        loop_index=loop_index,
        variable=var,
        stride=stride,
        increasing=increasing,
        valtype=vt,
        per_iteration_weight=per_iter,
        constant_weight=0,
        capture_local=capture_local,
        capture_point=loop_index,
        payoff_point=backedge + 1,
    )


def _try_pattern_b(
    module: Module,
    func: Function,
    func_index: int,
    cfg: ControlFlowGraph,
    structs,
    weights: WeightTable,
    loop_index: int,
    end_index: int,
    exit_branch: int,
) -> LoopHoist | None:
    body = cfg.body
    # resolve the exit target: must be an enclosing block's end marker
    depth = body[exit_branch].args[0]
    enclosing: list[int] = []
    stack: list[int] = []
    for i, instr in enumerate(body):
        if i == exit_branch:
            enclosing = list(stack)
            break
        if instr.name == "end" and stack:
            stack.pop()
        if instr.name in ("block", "loop", "if"):
            stack.append(i)
    if depth >= len(enclosing):
        return None  # exits the function: cannot place reconstruction code
    opener = enclosing[-1 - depth]
    if body[opener].name != "block":
        return None
    target_end = structs[opener].end

    # the target end marker must be reachable only through this exit branch
    target_block = cfg.blocks.get(target_end)
    exit_block = cfg.block_of(exit_branch)
    if target_block is None:
        return None
    live_preds = {
        p for p in set(target_block.predecessors)
        if p in cfg.reachable_blocks()
    }
    if live_preds != {exit_block.index}:
        return None

    found = _find_loop_variable(body, exit_branch + 1, end_index - 1, func, module)
    if found is None:
        return None
    var, stride, increasing, vt = found

    header_weight = weights.weight("loop") + _top_level_weight(
        body, loop_index + 1, exit_branch + 1, weights
    )
    body_weight = _top_level_weight(body, exit_branch + 1, end_index, weights)
    capture_local = _fresh_local(module, func, vt)
    return LoopHoist(
        func_index=func_index,
        loop_index=loop_index,
        variable=var,
        stride=stride,
        increasing=increasing,
        valtype=vt,
        per_iteration_weight=header_weight + body_weight,
        constant_weight=header_weight,
        capture_local=capture_local,
        capture_point=loop_index,
        # the exit branch lands *on* the end marker, so reconstruction code
        # must sit right after it (still covered by the single-predecessor
        # guard above)
        payoff_point=target_end + 1,
    )


def _fresh_local(module: Module, func: Function, vt: ValType) -> int:
    functype = module.types[func.type_index]
    index = len(functype.params) + len(func.locals)
    func.locals = tuple(func.locals) + (vt,)
    return index


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _increment_seq(counter: int, amount: int, budget: int | None = None) -> list[Instr]:
    seq = [
        Instr("global.get", (counter,)),
        Instr("i64.const", (amount & 0xFFFFFFFFFFFFFFFF,)),
        Instr("i64.add"),
        Instr("global.set", (counter,)),
    ]
    if budget is not None:
        # in-band enforcement (gas-metering style): trap once the counter
        # exceeds the agreed budget — no runtime cooperation needed
        seq += [
            Instr("global.get", (counter,)),
            Instr("i64.const", (budget,)),
            Instr("i64.gt_u"),
            Instr("if", ((),)),
            Instr("unreachable"),
            Instr("end"),
        ]
    return seq


def _capture_seq(hoist: LoopHoist) -> list[Instr]:
    return [
        Instr("local.get", (hoist.variable,)),
        Instr("local.set", (hoist.capture_local,)),
    ]


def _payoff_seq(counter: int, hoist: LoopHoist, budget: int | None = None) -> list[Instr]:
    """Reconstruct the iteration count and charge it (paper §3.6, loop-based).

    iterations = (v_after − v_before) / stride   (operands swapped when the
    variable decreases); the subtraction wraps, so the computation is exact
    whenever the true trip count fits the variable's type, which the write-
    once-per-iteration guard ensures.
    """
    vt = hoist.valtype.value
    first, second = (
        (hoist.variable, hoist.capture_local)
        if hoist.increasing
        else (hoist.capture_local, hoist.variable)
    )
    seq = [
        Instr("local.get", (first,)),
        Instr("local.get", (second,)),
        Instr(f"{vt}.sub"),
        Instr(f"{vt}.const", (hoist.stride,)),
        Instr(f"{vt}.div_u"),
    ]
    if hoist.valtype is ValType.I32:
        seq.append(Instr("i64.extend_i32_u"))
    seq += [
        Instr("i64.const", (hoist.per_iteration_weight,)),
        Instr("i64.mul"),
        Instr("global.get", (counter,)),
        Instr("i64.add"),
        Instr("global.set", (counter,)),
    ]
    if hoist.constant_weight:
        seq += _increment_seq(counter, hoist.constant_weight, budget)
    elif budget is not None:
        seq += [
            Instr("global.get", (counter,)),
            Instr("i64.const", (budget,)),
            Instr("i64.gt_u"),
            Instr("if", ((),)),
            Instr("unreachable"),
            Instr("end"),
        ]
    return seq


def _insertion_point(block: BasicBlock, body: list[Instr]) -> int:
    """Where a block's increment goes: before the terminator, else after."""
    terminator = body[block.end]
    if terminator.name in ("br", "br_if", "br_table", "return", "unreachable", "if", "else"):
        return block.end
    return block.end + 1


def instrument_module(
    module: Module,
    level: str = "loop-based",
    weight_table: WeightTable | None = None,
    budget: int | None = None,
) -> InstrumentationResult:
    """Instrument a module with a weighted instruction counter.

    ``level`` is one of ``"naive"``, ``"flow-based"`` or ``"loop-based"``.
    With ``budget`` set, every counter update is followed by an in-band
    check that traps once the counter exceeds the budget (gas-metering
    style) — the workload then cannot exceed the agreed resource cap even
    on a runtime that does not meter executions itself.  The input module
    is not modified; a clone is returned.
    """
    if level not in ("naive", "flow-based", "loop-based"):
        raise ValueError(f"unknown instrumentation level {level!r}")
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    weights = weight_table or UNIT_WEIGHTS

    out = module.clone()
    counter_index = out.num_imported_globals + len(out.globals)
    out.globals.append(
        Global(GlobalType(ValType.I64, mutable=True), [Instr("i64.const", (0,))])
    )
    export_name = COUNTER_EXPORT
    existing = {e.name for e in out.exports}
    while export_name in existing:
        export_name += "_"
    out.exports.append(Export(export_name, "global", counter_index))

    total_emitted = 0
    total_naive = 0
    total_hoisted = 0

    for func_index, func in enumerate(out.funcs):
        if not func.body:
            continue
        structs = build_structure_map(func.body)
        cfg = build_cfg(func.body)

        increments: dict[int, int] = {}
        for block in cfg.blocks.values():
            increments[block.index] = weights.block_weight(
                [i.name for i in block.instructions(func.body)]
            )
        total_naive += sum(1 for v in increments.values() if v > 0)

        hoists: list[LoopHoist] = []
        frozen: set[int] = set()
        if level == "loop-based":
            hoists = _find_hoistable_loops(out, func_index, cfg, structs, weights)
            for hoist in hoists:
                span_end = (
                    hoist.payoff_point - 1
                    if hoist.constant_weight == 0
                    else structs[hoist.loop_index].end - 1
                )
                depths = _relative_depths(func.body, hoist.loop_index + 1, span_end + 1)
                for block in cfg.blocks.values():
                    if not hoist.loop_index <= block.start <= span_end:
                        continue
                    # only the always-executed (depth-0) portion was hoisted;
                    # conditional arms keep their ordinary increments — but
                    # they must not take part in flow folding across the
                    # region boundary, so they are frozen in place too.
                    frozen.add(block.index)
                    if (
                        block.start == hoist.loop_index
                        or depths[block.start - hoist.loop_index - 1] == 0
                    ):
                        increments[block.index] = 0
            total_hoisted += len(hoists)

        if level in ("flow-based", "loop-based"):
            _flow_optimise(cfg, increments, frozen)

        insertions: list[tuple[int, list[Instr]]] = []
        for block in cfg.blocks.values():
            amount = increments.get(block.index, 0)
            if amount > 0:
                insertions.append(
                    (
                        _insertion_point(block, func.body),
                        _increment_seq(counter_index, amount, budget),
                    )
                )
        for hoist in hoists:
            insertions.append((hoist.capture_point, _capture_seq(hoist)))
            insertions.append((hoist.payoff_point, _payoff_seq(counter_index, hoist, budget)))

        total_emitted += sum(1 for _, seq in insertions if seq)
        for position, seq in sorted(insertions, key=lambda item: item[0], reverse=True):
            func.body[position:position] = seq

    return InstrumentationResult(
        module=out,
        level=level,
        weight_table=weights,
        counter_global_index=counter_index,
        increments_emitted=total_emitted,
        increments_naive=total_naive,
        hoisted_loops=total_hoisted,
    )
