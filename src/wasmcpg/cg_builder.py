"""Call graph: direct calls to their callees, indirect calls to every
type-compatible function resident in the module's function table. The edges
carry no property: their rows, from one `graph.EdgeRows`, share one `{}`."""

from __future__ import annotations

import logging

from .ast_builder import BuildContext
from .errors import GraphError
from .ir import ModuleIR, Signature, iter_instructions
from . import graph as g

log = logging.getLogger(__name__)

SignatureIndex = dict[Signature, list[str]]  # signature -> function names


def build_signature_index(module: ModuleIR) -> SignatureIndex:
    """Which table-resident functions answer each signature.

    Functions outside the table never appear: an indirect call can only reach
    table entries.
    """
    index: SignatureIndex = {}
    seen: set[int] = set()
    for fidx in module.table:
        if fidx in seen:
            continue
        seen.add(fidx)
        func = module.functions[fidx]
        index.setdefault(func.signature, []).append(func.name)
    for names in index.values():
        names.sort(key=lambda n: module.function_by_name(n).index)
    return index


def build_cg(ctx: BuildContext, index: SignatureIndex | None = None) -> None:
    """Add every CG edge, collected in order in an `EdgeRows`, whose rows
    share one `{}` map, and written with one `Cpg.add_edges`."""
    if index is None:
        index = build_signature_index(ctx.module)
    fn_node = {name: layout.func_node for name, layout in ctx.layouts.items()}
    rows = g.EdgeRows(g.CG)

    for layout in ctx.layouts.values():
        if layout.func.is_import:
            continue
        for inst in iter_instructions(layout.func.body):
            node = layout.inst_node[id(inst)]
            if inst.opcode == "call":
                if inst.callee not in fn_node:
                    raise GraphError(f"call to undefined function {inst.callee}")
                rows.add(node, fn_node[inst.callee])
            elif inst.opcode == "call_indirect":
                targets = index.get(inst.type_use, [])
                if not targets:
                    log.warning("call_indirect with signature %s matches no "
                                "table entry (node %d)", inst.type_use.text(), node)
                for name in targets:
                    rows.add(node, fn_node[name])
    ctx.cpg.add_edges(rows)
