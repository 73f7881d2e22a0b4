"""Independent fixpoint oracle: round-robin chaotic iteration.

Sweeps every reachable CFG node in a reverse postorder of its own, computed
by a depth-first search over CFG out-edges, recomputing each node's input as
the join of its predecessors' adjusted outputs, until nothing changes. In
reverse postorder every forward edge is followed within one sweep, so the
sweep count grows with loop nesting, not with block depth. Shares only the
per-instruction transfer rules with the engine under test; the iteration
order, bookkeeping and convergence detection are its own.
"""

from __future__ import annotations

from wasmcpg import dataflow as df
from wasmcpg import graph as g


def round_robin_states(ctx, func_name: str) -> dict[int, df.State]:
    layout = ctx.layouts[func_name]
    if layout.func.is_import:
        return {}
    fd = df._prepare(ctx, layout)
    cpg = ctx.cpg
    entry_edges = cpg.out_edges(layout.func_node, g.CFG)
    if not entry_edges:
        return {}
    entry = entry_edges[0].dst
    init = df.initial_state(fd)
    nodes = _reverse_postorder(cpg, entry)

    ins: dict[int, df.State] = {}
    outs: dict[int, df.State] = {}
    changed = True
    sweeps = 0
    while changed:
        changed = False
        sweeps += 1
        if sweeps > 10_000:
            raise AssertionError("oracle failed to converge")
        for n in nodes:
            acc = init if n == entry else None
            for e in cpg.in_edges(n, g.CFG):
                if e.src == layout.func_node or e.src not in outs:
                    continue
                adjusted = df.adjust_for_edge(outs[e.src], fd.info[n])
                acc, _ = df.join(acc, adjusted)
            if acc is None:
                continue
            if ins.get(n) != acc:
                ins[n] = acc
                changed = True
            out, _ = df.transfer(n, fd.info[n], acc)
            if outs.get(n) != out:
                outs[n] = out
                changed = True
    return ins


def _reverse_postorder(cpg, entry: int) -> list[int]:
    """The CFG nodes reachable from `entry`, in reverse postorder of an
    explicit-stack depth-first search."""
    seen = {entry}
    post: list[int] = []
    stack = [(entry, iter(cpg.out_edges(entry, g.CFG)))]
    while stack:
        node, edges = stack[-1]
        for e in edges:
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append((e.dst, iter(cpg.out_edges(e.dst, g.CFG))))
                break
        else:
            stack.pop()
            post.append(node)
    return post[::-1]
