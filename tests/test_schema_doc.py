"""The field tables of docs/scenario_format.md are rendered from the schema.

``xdmev.scenario`` states every field once, in its schema tables. This
module renders each table as markdown, and the test checks that the
format doc holds exactly those field tables. After a schema change, print
the new tables with ``PYTHONPATH=src python tests/test_schema_doc.py``
and paste each into its section of the doc.
"""

import json
from pathlib import Path

from xdmev import scenario as schema
from xdmev.fixedpoint import parse_fraction
from xdmev.venues import ConstantProductPool, StylizedMidpointPool

DOC = Path(__file__).resolve().parents[1] / "docs" / "scenario_format.md"
HEADER = "| field | kind | required or default | minimum |\n| --- | --- | --- | --- |"
POOL_TYPES = {ConstantProductPool: "constant-product pool", StylizedMidpointPool: "stylized pool"}


def _choices(values) -> str:
    quoted = [f"`{value}`" for value in values]
    return ", ".join(quoted[:-1]) + f" or {quoted[-1]}" if len(quoted) > 1 else quoted[0]


def kind_text(kind) -> str:
    load = kind[0]
    if load is schema._id:
        return f"new {kind[1]}" if kind[1].endswith(" id") else f"new {kind[1]} id"
    if load is schema._ref:
        return f"{POOL_TYPES.get(kind[3], kind[1])} reference"
    if load is schema._string:
        return "string" if kind[1] is None else _choices(kind[1])
    if load is schema._number:
        return "rate" if kind[1] is parse_fraction else "amount"
    if load is schema._integer:
        if kind[2] is not None:
            return f"integer `{kind[2]}`"
        return "integer" if kind[1] is None else f"integer below {kind[1]}"
    if load is schema._list:
        item = kind_text(kind[1])
        return f"list of {item if item.endswith('`') else item + 's'}"
    if load is schema._mode:
        return "amount mode"
    assert load is schema._section, load
    return "object"


def _row(name: str, kind_cell: str, default, minimum, is_list: bool) -> str:
    if default is schema.REQUIRED:
        presence = "required"
    elif default is None:
        presence = "optional; null counts as absent"
    else:
        presence = f"default `{json.dumps(default)}`"
    if minimum is None:
        floor = ""
    elif minimum == 0:
        floor = ">= 0"
    else:
        floor = "nonempty" if is_list else "> 0"
    return f"| `{name}` | {kind_cell} | {presence} | {floor} |"


def _table(title: str, rows, tag=None) -> str:
    lines = [f"Fields of {title}:", "", HEADER]
    for name, kind, default, minimum, _ in rows:
        lines.append(_row(name, kind_text(kind), default, minimum, kind[0] is schema._list))
    if tag is not None:
        lines.append(_row(tag[0], _choices(tag[1]), schema.REQUIRED, None, False))
    return "\n".join(lines)


def render_blocks(table=schema._DOCUMENT, where: str = "") -> list[str]:
    """One markdown block per table, nested tables after the rows naming them."""
    title = f"`{where}`" if where else "the document"
    if table.variants is None:
        blocks, rows = [_table(title, table.rows)], table.rows
    else:
        name = table.tag[0]
        tags = [tag for tag, variant in table.variants.items() if isinstance(variant, schema._Table)]
        own = len(table.rows)
        blocks = [_table(f"{title}, every `{name}`", table.rows, (name, tags))]
        for tag in tags:
            variant_rows = table.variants[tag].rows[own:]
            blocks.append(_table(f'{title} with `"{name}": "{tag}"`', variant_rows))
        rows = table.rows + tuple(r for tag in tags for r in table.variants[tag].rows[own:])
    for name, kind, _, _, _ in rows:
        path = f"{where}.{name}" if where else name
        if kind[0] is schema._section:
            blocks += render_blocks(kind[1], path)
        elif kind[0] is schema._list and kind[1][0] is schema._section:
            blocks += render_blocks(kind[1][1], f"{path}[]")
    return blocks


def test_format_doc_holds_the_rendered_field_tables():
    doc = DOC.read_text(encoding="utf-8")
    blocks = render_blocks()
    missing = [block.splitlines()[0] for block in blocks if block not in doc]
    assert missing == [], "stale field tables in docs/scenario_format.md: " + ", ".join(missing)
    assert doc.count(HEADER) == len(blocks), "the doc holds a field table the schema lacks"


if __name__ == "__main__":
    print("\n\n".join(render_blocks()))
