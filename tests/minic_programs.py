"""Hypothesis strategy for random MiniC programs, shared by property tests.

``programs()`` draws ``int f(int a, int b)`` with straight-line arithmetic,
shifts, comparisons, branches and bounded ``for``/``while`` loops: every
program terminates and never traps, so a test can compare any two
executions of it.  Large literals and products make values wrap around
2**32 often.
"""

from __future__ import annotations

from hypothesis import strategies as st

_VARS = ["a", "b", "t"]
#: small literals, and large ones whose products and sums wrap
_LITERALS = ["1", "2", "3", "7", "11", "65537", "1000003", "2147483647"]


@st.composite
def expressions(draw, depth: int = 0) -> str:
    if depth >= 3:
        return draw(st.sampled_from(_VARS + _LITERALS))
    kind = draw(st.sampled_from(["leaf", "leaf", "binop", "cmp", "not"]))
    if kind == "leaf":
        return draw(st.sampled_from(_VARS + _LITERALS))
    if kind == "binop":
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", "<<", ">>"]))
        left = draw(expressions(depth + 1))
        right = draw(expressions(depth + 1))
        return f"({left} {op} {right})"
    if kind == "cmp":
        op = draw(st.sampled_from(["<", ">", "==", "!="]))
        left = draw(expressions(depth + 1))
        right = draw(expressions(depth + 1))
        return f"({left} {op} {right})"
    operand = draw(expressions(depth + 1))
    return f"(!{operand})"


@st.composite
def statements(draw, depth: int = 0) -> str:
    kind = draw(
        st.sampled_from(
            ["assign", "assign", "if", "ifelse", "forloop", "whileloop"]
            if depth < 2
            else ["assign"]
        )
    )
    if kind == "assign":
        var = draw(st.sampled_from(_VARS))
        expr = draw(expressions())
        return f"{var} = {expr};"
    if kind == "if":
        cond = draw(expressions(1))
        body = draw(statements(depth + 1))
        return f"if ({cond}) {{ {body} }}"
    if kind == "ifelse":
        cond = draw(expressions(1))
        then_body = draw(statements(depth + 1))
        else_body = draw(statements(depth + 1))
        return f"if ({cond}) {{ {then_body} }} else {{ {else_body} }}"
    if kind == "forloop":
        bound = draw(st.integers(min_value=0, max_value=6))
        body = draw(statements(depth + 1))
        loop_var = f"i{depth}"
        return (
            f"for (int {loop_var} = 0; {loop_var} < {bound}; "
            f"{loop_var} = {loop_var} + 1) {{ {body} }}"
        )
    bound = draw(st.integers(min_value=0, max_value=5))
    body = draw(statements(depth + 1))
    guard = f"w{depth}"
    return (
        f"{{ int {guard} = 0; while ({guard} < {bound}) "
        f"{{ {body} {guard} = {guard} + 1; }} }}"
    )


@st.composite
def programs(draw) -> str:
    body = " ".join(draw(st.lists(statements(), min_size=1, max_size=4)))
    return (
        "int f(int a, int b) { int t = 0; "
        + body
        + " return t + a + b; }"
    )
