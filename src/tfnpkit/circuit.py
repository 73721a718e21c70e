"""Boolean circuit IR: evaluation, size, restrictions, and netlist text I/O.

A circuit is an immutable list of gates in topological order over the
alphabet {INPUT, CONST, NOT, AND, OR}; operands are integer references to
strictly earlier gates, and the output list names the gates whose values
form the output word.  A gate is a plain ``(op, a, b)`` tuple (:class:`Gate`):
the same value is a circuit's gate and a builder's hash key, a restriction
works on ``(op, a, b)`` rows, and per-gate loops unpack them.

A circuit that is read again and again (an iteration or sink-of-DAG
instance's) is read through :func:`point`, which caches its points on the
circuit beside its size: up to 16 inputs, the truth table; wider, each
point evaluated once.  A circuit synthesised from a table
(:func:`circuit_from_table`) carries that table from the start, and any
other builds it at its first point.  A reader that takes each point once or
twice (end-of-line checks and walks) calls :func:`evaluate`.

A table-born circuit has a fixed gate layout, which tests compare gate for
gate: the n INPUT gates, one NOT per input, the minterm AND chains in order
of x, each output's OR chain in output order, and at most one CONST 0,
shared by the outputs that are never 1 and placed where the first of them
would start its chain.  Its outputs and size are counted from its table
when it is made; its gates, up to 16 inputs, are written only when first
read, and must then give that size.  The writer makes the gates of each
chain step and each OR chain in one pass over their operand columns.  The
INPUT, NOT and minterm AND gates depend on n alone, and live table-born
circuits of one width share them as the same objects: a write takes them
from the last circuit whose gates were written at its width while that
circuit lives.  Nothing else holds them, so they go with the last circuit
that does.

Circuits are validated once, at the boundary: ``Circuit(...)`` checks what
it is given, and :func:`parse_netlist` checks each row as it reads it.  The
parser and every producer of circuits derived from valid ones (restrictions,
builders, synthesisers) build by :func:`_derived` without the check, and a
test validates each producer's output again.  :func:`point` trusts its word.

The canonical size measure counts logic gates (NOT/AND/OR) plus wires,
where every input bit contributes one port wire, every gate operand one
wire, and every output one wire.  Under this measure removing an input
(with constant propagation) and removing an output (with dead-gate
elimination) both strictly shrink the circuit.  One constant-folding loop
(``_fold``) fixes one input to one bit per pass.  An iteration query
(input 1 fixed to a bit, output 1 dropped) is a :class:`Half`, made for
that side alone by one fold: rows in a circuit's own format, inputs
numbered from 0, sized exactly and halved again without building gates,
and swept into a circuit only when read.  A table-born root's halves, and
theirs, are sized exactly from the root's table by the layout's rule,
with no pass, and hold no parent; a half's rows are written from its
masks when read, in the fold's order, so ``_fold`` runs only on circuits
that are not table-born and on their halves.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, compress, count, islice, repeat
from operator import and_, itemgetter, or_
from typing import NamedTuple, Sequence

from .bits import check_bits, to_int
from .errors import DimensionError, NetlistError, RestrictionError, SizingError

OP_INPUT = "input"
OP_CONST = "const"
OP_NOT = "not"
OP_AND = "and"
OP_OR = "or"

_BINARY = (OP_AND, OP_OR)
#: Per binary op, the constant operand (``~bit``, see ``_fold``) that passes
#: the other operand through; the other constant is the result.
_KEEP = {OP_AND: ~1, OP_OR: ~0}
_LOGIC = (OP_NOT, OP_AND, OP_OR)
#: What ``_liveness`` puts in place of a dead row: every loop over rows
#: unpacks it as ``(op, a, b)`` and skips it by its op, None.
_DEAD = (None, 0, 0)

#: What a logic gate adds to ``size``: itself plus its operand wires.
GATE_COST = {OP_NOT: 2, OP_AND: 3, OP_OR: 3}

#: Widest circuit that reads its points from a truth table, and the bound of
#: the exhaustive scans.  A wider circuit's table would hold 2^n words.
_TABLE_MAX_INPUTS = 16

#: Per width n, the last table-born circuit whose gates were written at n,
#: held only weakly: while it lives, the next write at n takes its INPUT,
#: NOT and minterm AND gates, which depend on n alone, as the same objects.
_TABLE_BORN: weakref.WeakValueDictionary[int, Circuit] = weakref.WeakValueDictionary()


class Gate(NamedTuple):
    """One gate, the tuple ``(op, a, b)``: ``a`` is the input index for
    INPUT, the bit for CONST, and the first operand reference otherwise.
    ``b`` is the second operand for AND/OR and 0 elsewhere, so equal gates
    are equal tuples."""

    op: str
    a: int = 0
    b: int = 0


# Gates are made by ``tuple.__new__(Gate, (op, a, b))``, which skips the
# named tuple's Python-level ``__new__`` and makes the same ``Gate``.
_new = tuple.__new__


def INPUT(k: int) -> Gate:
    return _new(Gate, (OP_INPUT, k, 0))


def CONST(bit: int) -> Gate:
    return _new(Gate, (OP_CONST, bit, 0))


def NOT(a: int) -> Gate:
    return _new(Gate, (OP_NOT, a, 0))


def AND(a: int, b: int) -> Gate:
    return _new(Gate, (OP_AND, a, b))


def OR(a: int, b: int) -> Gate:
    return _new(Gate, (OP_OR, a, b))


class _Unwritten:
    """``Circuit.gates`` where a circuit's ``__dict__`` holds none, as a
    table-born circuit's does not until they are read: written then.  With
    no ``__set__``, gates in a ``__dict__`` come first (a ``__getattr__``
    would slow every attribute read of every circuit); read on the class it
    raises AttributeError, so ``dataclass`` gives the field no default."""

    def __get__(self, c: Circuit | None, owner: type) -> tuple[Gate, ...]:
        if c is None:
            raise AttributeError("gates")
        return _write_table_gates(c, c._points)


@dataclass(frozen=True)
class Circuit:
    n: int
    m: int
    gates: tuple[Gate, ...] = _Unwritten()  # no default: see ``_Unwritten``
    outputs: tuple[int, ...]
    name: str = field(default="c", compare=False)

    def __post_init__(self):
        _check_shape(self.n, self.m)
        for idx, (op, a, b) in enumerate(self.gates):
            if op == OP_INPUT:
                if not 0 <= a < self.n:
                    raise DimensionError(f"gate {idx}: input index {a} out of range")
            elif op == OP_CONST:
                if a not in (0, 1):
                    raise DimensionError(f"gate {idx}: constant must be 0 or 1")
            elif op in _LOGIC:
                for r in (a,) if op == OP_NOT else (a, b):
                    if not 0 <= r < idx:
                        raise DimensionError(f"gate {idx}: reference {r} is not an earlier gate")
            else:
                raise DimensionError(f"gate {idx}: unknown op {op!r}")
            if b != 0 and op not in _BINARY:
                raise DimensionError(f"gate {idx}: {op} takes no second operand, got {b}")
        if len(self.outputs) != self.m:
            raise DimensionError(f"expected {self.m} outputs, got {len(self.outputs)}")
        for r in self.outputs:
            if not 0 <= r < len(self.gates):
                raise DimensionError(f"output reference {r} out of range")

    @cached_property
    def _size(self) -> int:
        return _gate_cost(self.gates) + self.n + len(self.outputs)

    @cached_property
    def _points(self) -> str | dict[str, str]:
        """What :func:`point` reads: the truth table as one string of the
        output words in input order, or for a wider circuit a memo of the
        points evaluated so far.  A table-born circuit is given its table
        (``circuit_from_table``); any other builds it here."""
        return "".join(successor_table(self)) if self.n <= _TABLE_MAX_INPUTS else {}

    @cached_property
    def _masks(self) -> list[int] | None:
        """Per output, its ``output_masks`` mask, sliced from the table of a
        table-born circuit (``circuit_from_table`` marks one); None for any other."""
        if "_table_born" not in vars(self):
            return None
        words, m = self._points, self.m
        return [int(words[j::m][::-1], 2) for j in range(m)]


def _check_shape(n: int, m: int) -> None:
    if n < 0 or m < 1:
        raise DimensionError(f"bad circuit shape n={n}, m={m}")


def _derived(n: int, gates: tuple[Gate, ...] | None, outputs: tuple[int, ...], name: str) -> Circuit:
    """A circuit built without ``Circuit``'s check: its producer keeps the
    rules by construction or checked them row by row (the netlist parser);
    a test runs each producer and validates the result.  ``gates`` is None
    for a table-born circuit, whose gates are written when read."""
    c = object.__new__(Circuit)
    c.__dict__.update(n=n, m=len(outputs), gates=gates, outputs=outputs, name=name)
    if gates is None:
        del c.__dict__["gates"]
    return c


def _gate_cost(gates: Sequence[Gate]) -> int:
    """What the logic gates of ``gates`` add to ``size``."""
    return sum(map(GATE_COST.get, map(itemgetter(0), gates), repeat(0)))


def size(c: Circuit) -> int:
    """Logic gate count plus wire count (input ports, operands, outputs),
    computed once per circuit and cached on it."""
    return c._size


def evaluate(c: Circuit, x: str) -> str:
    check_bits(x, c.n)
    vals = []
    for op, a, b in c.gates:
        if op == OP_INPUT:
            vals.append(x[a] == "1")
        elif op == OP_CONST:
            vals.append(bool(a))
        elif op == OP_NOT:
            vals.append(not vals[a])
        elif op == OP_AND:
            vals.append(vals[a] and vals[b])
        else:
            vals.append(vals[a] or vals[b])
    return "".join("1" if vals[r] else "0" for r in c.outputs)


def point(c: Circuit, x: str) -> str:
    """The output word of ``c`` at ``x``, read from the points cached on ``c``;
    ``x`` is an n-bit word checked where it entered or read from a circuit."""
    points = c._points
    if type(points) is str:
        m = c.m
        start = to_int(x) * m
        return points[start : start + m]
    hit = points.get(x)
    if hit is None:
        hit = points[x] = evaluate(c, x)
    return hit


def _input_mask(n: int, k: int) -> int:
    """Bit-parallel value of input k over all 2^n assignments; bit x of the
    mask is the k-th (most significant first) bit of x: from x = 0 up, runs
    of ``block`` zeros then ``block`` ones, repeated 2^k times.  Parsed from
    its binary digits, which costs linear time (the division form in
    ``bench/oracle.py`` takes about ten times as long at 16 inputs)."""
    block = 1 << (n - 1 - k)
    return int(("1" * block + "0" * block) * (1 << k), 2)


def output_masks(c: Circuit) -> list[int]:
    """For each output, the integer whose bit x is the output on input value x.

    Evaluates the whole truth table in one pass using word-parallel integer
    operations.  Gates that feed no output are skipped, and each gate's mask
    is freed after its last reader, so only the masks still to be read are
    held at any time.  A circuit of up to 16 inputs that was not born with
    its table reads its points from this one, built at its first point and
    cached on it (see ``point``).
    """
    gates = c.gates
    last, _ = _liveness(list(gates), c.outputs)
    full = (1 << (1 << c.n)) - 1
    vals: list[int | None] = [None] * len(gates)
    for idx, (op, a, b) in enumerate(gates):
        if last[idx] < 0:
            continue
        if op == OP_INPUT:
            v = _input_mask(c.n, a)
        elif op == OP_CONST:
            v = full if a else 0
        elif op == OP_NOT:
            v = full ^ vals[a]
            if last[a] == idx:
                vals[a] = None
        else:
            va, vb = vals[a], vals[b]
            v = va & vb if op == OP_AND else va | vb
            if last[a] == idx:
                vals[a] = None
            if last[b] == idx:
                vals[b] = None
        vals[idx] = v
    return [vals[r] for r in c.outputs]


def _check_fix(c: Circuit, position: int, bit: int) -> None:
    if not 1 <= position <= c.n:
        raise RestrictionError(f"input position {position} out of range 1..{c.n}")
    if bit not in (0, 1):
        raise RestrictionError("restriction bit must be 0 or 1")


def _check_drop(c: Circuit, position: int) -> None:
    if c.m < 2:
        raise RestrictionError("cannot restrict the only output")
    if not 1 <= position <= c.m:
        raise RestrictionError(f"output position {position} out of range 1..{c.m}")


def _fold(rows, outputs: Sequence[int], k0: int, bit: int) -> tuple[list, list[int]]:
    """Input ``k0`` (0-based) of ``rows`` (see ``_rows``) fixed to ``bit``,
    in one pass, and the references of ``outputs`` in the result.  A folded
    value ``v >= 0`` names a result row, ``v < 0`` is the constant ``~v``;
    an INPUT above ``k0`` moves down by one, a dead row is passed over, and
    each constant an output folds to gets one CONST row.  Ops are compared
    by equality: a valid circuit may carry op strings equal to the ``OP_*``
    constants without being the same objects."""
    folded: list = []
    vals: list = []
    for row in rows:
        op, a, b = row
        keep = _KEEP.get(op)  # AND/OR, the bulk of the rows, first
        if keep is not None:
            x, y = vals[a], vals[b]
            if x < 0:
                vals.append(y if x == keep else x)
            elif y < 0:
                vals.append(x if y == keep else y)
            else:
                vals.append(len(folded))
                folded.append((op, x, y))
            continue
        if op is None:  # no live row reads it
            vals.append(None)
            continue
        if op == OP_NOT:
            x = vals[a]
            if x < 0:
                vals.append(-3 - x)  # ~0 and ~1 swap
                continue
            row = (op, x, 0)
        elif op == OP_INPUT and a >= k0:
            if a == k0:
                vals.append(~bit)
                continue
            row = (op, a - 1, 0)
        vals.append(len(folded))
        folded.append(row)
    const_refs: dict[int, int] = {}
    outs = []
    for r in outputs:
        v = vals[r]
        if v < 0:
            if v not in const_refs:
                const_refs[v] = len(folded)
                folded.append((OP_CONST, ~v, 0))
            v = const_refs[v]
        outs.append(v)
    return folded, outs


def _liveness(rows: list, refs: Sequence[int]) -> tuple[list[int], int]:
    """Per row, the index of the last row that reads it (``len(rows)`` for
    one of ``refs``, -1 for none: dead), and what the live logic rows add to
    ``size``, from one backward pass.  The pass puts ``_DEAD`` in place of
    each dead row but an INPUT in ``rows``, which the caller owns, and
    prices the live NOT and AND/OR counts once each (AND and OR cost the same)."""
    top = len(rows)
    last = [-1] * top
    for r in refs:
        last[r] = top
    binary = nots = 0
    idx = top
    for op, a, b in reversed(rows):
        idx -= 1
        if last[idx] >= 0:
            if op == OP_AND or op == OP_OR:
                binary += 1
                if last[a] < 0:
                    last[a] = idx
                if last[b] < 0:
                    last[b] = idx
            elif op == OP_NOT:
                nots += 1
                if last[a] < 0:
                    last[a] = idx
        elif op != OP_INPUT:
            rows[idx] = _DEAD
    return last, binary * GATE_COST[OP_AND] + nots * GATE_COST[OP_NOT]


def _sweep(n: int, rows, refs: Sequence[int], name: str) -> Circuit:
    """The circuit on the ``rows`` whose op is not None (no kept row or
    output reads a dead one), with outputs ``refs`` and operands renumbered."""
    remap: list[int] = []
    gates: list[Gate] = []
    for op, a, b in rows:
        remap.append(len(gates))
        if op is None:
            continue
        if op == OP_NOT:
            a = remap[a]
        elif op in _BINARY:
            a, b = remap[a], remap[b]
        gates.append(_new(Gate, (op, a, b)))
    return _derived(n, tuple(gates), tuple(remap[r] for r in refs), name)


class Half:
    """A circuit's or a half's leading input fixed to ``bit`` and its output
    1 dropped, kept as ``(op, a, b)`` rows in a circuit's own format, inputs
    numbered from 0, and output references, not as a circuit.  A half is
    made for one side only, from one fold of its parent's rows, which skips
    what the parent's sweep would drop.  One backward pass puts ``_DEAD`` in
    place of its dead rows, so the next fold skips them, and sums its exact
    ``size``.  :attr:`circuit` sweeps the rows into gates, gate for gate the
    chain of ``restrict_half`` calls.

    Below a table-born root, a half holds no parent: it is split from its
    parent's outputs' masks, sized from its own (``_table_size``) and made
    with no rows, which are written from the masks when read (``_written``),
    live rows only, in the order the fold would give them.  The written
    rows' liveness size must be the table size, or :class:`SizingError`.
    There a half also carries, per root output, the CONST row the output
    reads as a key ``(depth, place, bit)``, or None while it reads its
    chain: ``(0, j0, 0)`` for the root's CONST 0, which sits at j0, the
    root's first never-1 output; ``(e, 0, 0)`` for the CONST 0 the fold at
    depth e appends once it empties the output's mask; at w = 0, ``(e,
    place, bit)``, placed in order of the parent's outputs, the dropped one
    included.  A split that makes no CONST row passes its parent's keys on."""

    __slots__ = ("n", "m", "depth", "name", "rows", "outputs", "size")
    __slots__ += ("_masks", "_consts", "__weakref__")  # table sizing and writing

    def __init__(self, parent: "Circuit | Half", bit: int):
        _check_fix(parent, 1, bit)
        _check_drop(parent, 1)
        w = self.n = parent.n - 1
        self.m, self.name = parent.m - 1, parent.name
        below = type(parent) is Half
        self.depth = depth = parent.depth + 1 if below else 1
        masks = parent._masks
        if masks is None:
            self._masks = self._consts = self.size = None
            folded, outs = _fold(_rows(parent), parent.outputs, 0, bit)
            self._fill(folded, outs[1:])
            return
        if below:
            keys = parent._consts
        else:
            root = (0, masks.index(0), 0) if 0 in masks else None
            keys = [None if v else root for v in masks]
        width = 1 << w
        split = [v >> width for v in masks] if bit else [v & (1 << width) - 1 for v in masks]
        if not w or split.count(0) > masks.count(0):  # the fold makes CONST rows here
            keys = keys.copy()
            made = [(j, v) for j, v in enumerate(split, depth - 1) if keys[j] is None and (not w or not v)]
            first = made[0][1] if made else 0
            for j, v in made:
                keys[j] = (depth, v ^ first, v)
        self._masks, self._consts = split[1:], keys
        self.size = _table_size(self._masks, w)

    def _fill(self, rows: list, outputs: list[int]) -> None:
        """Take the rows and output references, and size them."""
        self.rows, self.outputs = rows, outputs
        swept = _liveness(rows, outputs)[1] + self.n + self.m
        if self.size is None:
            self.size = swept
        elif swept != self.size:
            raise SizingError(f"half at depth {self.depth} has size {swept}, its table gives {self.size}")

    @property
    def circuit(self) -> Circuit:
        """The half's circuit, swept from its rows at each read."""
        return _sweep(self.n, _rows(self), self.outputs, self.name)


def _table_size(masks: list[int], w: int) -> int:
    """The size of a half of a table-born root (``circuit_from_table``'s
    layout, folded by ``_fold``) with ``w`` inputs left, whose kept outputs
    are 1 on the points ``masks`` hold: w input ports, one wire per output,
    w - 1 ANDs per live minterm (one an output reads), an OR per output
    point but its first, and a NOT per input that is 0 at some live point.
    With no input left, every output is a constant."""
    if not w:
        return len(masks)
    live = ors = 0
    for v in masks:
        live |= v
        ors += v.bit_count() - 1 if v else 0
    ands, nots, span = live.bit_count() * (w - 1), 0, 1 << w
    while span > 1:  # each input in turn: live points with it 0, then the suffixes of all
        span >>= 1
        low = live & (1 << span) - 1
        nots += low != 0
        live = low | live >> span
    return w + len(masks) + GATE_COST[OP_NOT] * nots + GATE_COST[OP_AND] * (ands + ors)


def _written(half: Half) -> tuple[list, list[int]]:
    """The live rows of a half below a table-born root and its output
    references, written from its masks in the order ``_fold`` gives them:
    ``circuit_from_table``'s layout over the half's w inputs with its dead
    rows left out.  The w INPUT rows come first; a NOT follows for each
    input that is 0 at some live point (one an output reads), then w - 1
    ANDs per live point in order of x; then each output's OR chain in output
    order, the root's CONST 0 at its place among them; then the CONST rows
    later folds appended, in the order of their keys (see
    :class:`Half`).  No row is dead."""
    w, masks, consts = half.n, half._masks, half._consts[half.depth :]
    rows = [*map(INPUT, range(w))]

    def put(op: str, a: int, b: int = 0) -> int:
        rows.append((op, a, b))
        return len(rows) - 1

    live = reduce(or_, masks, 0) if w else 0  # an output that reads a CONST has mask 0 while w > 0
    points = list(compress(count(), map("1".__eq__, bin(live)[:1:-1])))
    ones = reduce(and_, points, (1 << w) - 1)  # the inputs that are 1 at every live point
    literals = [(put(OP_NOT, k) if not ones >> w - 1 - k & 1 else None, k) for k in range(w)]
    minterm: list[int | None] = [None] * (1 << w)
    for x in points:
        acc, *rest = [literal[bit == "1"] for literal, bit in zip(literals, format(x, f"0{w}b"))]
        for r in rest:
            acc = put(OP_AND, acc, r)
        minterm[x] = acc
    root = next((key for key in consts if key and not key[0]), None)
    place = max(root[1] - half.depth, 0) if root else -1  # the kept output whose chain it precedes
    refs: dict[tuple, int] = {}
    outs: list = []
    for j, (v, key) in enumerate(zip(masks, consts)):
        if j == place:
            refs[root] = put(OP_CONST, 0)
        if key is None:
            terms = list(compress(minterm, map("1".__eq__, bin(v)[:1:-1])))
            key = terms[0]
            for r in islice(terms, 1, None):
                key = put(OP_OR, key, r)
        outs.append(key)
    for key in sorted(set(filter(None, consts)) - refs.keys()):
        refs[key] = put(OP_CONST, key[2])
    return rows, [refs.get(r, r) for r in outs]


def _rows(c: Circuit | Half) -> Sequence[tuple]:
    """``c``'s ``(op, a, b)`` rows, a dead one ``_DEAD``; a half below a
    table-born root has its rows written first."""
    if isinstance(c, Half):
        if not hasattr(c, "rows"):
            c._fill(*_written(c))
        return c.rows
    return c.gates


def restrict_input(c: Circuit, position: int, bit: int) -> Circuit:
    """Remove input ``position`` (1-based) by fixing it to ``bit`` and
    propagating the constant forward.

    NOT of a constant folds to a constant; AND/OR with two constant operands
    fold; AND with a constant 0 (OR with 1) short-circuits to the constant;
    AND with a constant 1 (OR with 0) passes the other operand through.
    Constants surviving to an output are materialised as CONST gates.
    """
    _check_fix(c, position, bit)
    rows, outs = _fold(c.gates, c.outputs, position - 1, bit)
    return _sweep(c.n - 1, rows, outs, c.name)


def project_outputs(c: Circuit, keep: Sequence[int]) -> Circuit:
    """Keep exactly the 0-based output indices in ``keep`` (in the given
    order), removing gates that no longer feed any remaining output.
    Input gates are always kept so the input arity is preserved."""
    keep = list(keep)
    for j in keep:
        if not 0 <= j < c.m:
            raise RestrictionError(f"output index {j} out of range 0..{c.m - 1}")
    if not keep:
        raise RestrictionError("a circuit must keep at least one output")
    refs = [c.outputs[j] for j in keep]
    rows = list(c.gates)
    _liveness(rows, refs)
    return _sweep(c.n, rows, refs, c.name)


def drop_sizes(c: Circuit, position: int) -> list[int]:
    """``size()`` after d chained ``restrict_output(·, position)`` calls, at
    index d = 0..m - position, from one backward pass: output j (0-based)
    survives d drops while ``d <= j + 1 - position`` or ``j < position - 1``,
    and a logic gate lives in the drop of d while an output it feeds does."""
    span, p = c.m - position, position - 1
    life = [-1] * len(c.gates)
    for j, r in enumerate(c.outputs):
        life[r] = max(life[r], j - p if j >= p else span)
    costs = [0] * (span + 1)
    binary, nots = GATE_COST[OP_AND], GATE_COST[OP_NOT]
    idx = len(c.gates)
    for op, a, b in reversed(c.gates):
        idx -= 1
        d = life[idx]
        if d > 0:  # a gate that lives at d = 0 only counts in ``c`` itself
            if op == OP_AND or op == OP_OR:
                costs[d] += binary
                if life[b] < d:
                    life[b] = d
            elif op == OP_NOT:
                costs[d] += nots
            else:
                continue
            if life[a] < d:
                life[a] = d
    return [size(c)] + [sum(costs[d:]) + c.n + c.m - d for d in range(1, span + 1)]


def restrict_output(c: Circuit, position: int) -> Circuit:
    """Remove output ``position`` (1-based) and delete the gates that fed
    only the removed output."""
    _check_drop(c, position)
    keep = [j for j in range(c.m) if j != position - 1]
    return project_outputs(c, keep)


def restrict_half(c: Circuit, bit: int) -> Circuit:
    """The half of ``c`` whose leading bit is ``bit``, the circuit of
    ``Half(c, bit)``, one fold of that side alone: gate for gate
    ``restrict_output(restrict_input(c, 1, bit), 1)``, output 1's CONST gate
    folded before the dead gates go."""
    return Half(c, bit).circuit


def pad_with_dead_gates(c: Circuit, count: int) -> Circuit:
    """Append ``count`` NOT gates that feed nothing; the behaviour is
    unchanged but the size measure grows.  Used to demonstrate monitor
    violations."""
    if count < 0:
        raise ValueError("count must be non-negative")
    gates = list(c.gates)
    ref = len(gates) - 1
    for _ in range(count):
        gates.append(NOT(ref))
        ref = len(gates) - 1
    return _derived(c.n, tuple(gates), c.outputs, c.name)


def identity_circuit(n: int, name: str = "id") -> Circuit:
    _check_shape(n, n)
    gates = tuple(INPUT(k) for k in range(n))
    return _derived(n, gates, tuple(range(n)), name)


def constant_circuit(n: int, bits: str, name: str = "k") -> Circuit:
    check_bits(bits)
    _check_shape(n, len(bits))
    gates = [INPUT(k) for k in range(n)]
    outs = []
    refs: dict[str, int] = {}
    for b in bits:
        if b not in refs:
            gates.append(CONST(int(b)))
            refs[b] = len(gates) - 1
        outs.append(refs[b])
    return _derived(n, tuple(gates), tuple(outs), name)


def circuit_from_table(table: Sequence[int], n: int, m: int, name: str = "t") -> Circuit:
    """Synthesise a circuit computing the given truth table (entry x is the
    m-bit output for input value x) as a shared-minterm multiplexer.  A
    circuit narrow enough to read its points from a table (see ``point``)
    carries this one from the start.

    The gate layout is part of the contract: the n INPUT gates, then one NOT
    per input (``n + k`` negates input k), then the minterm AND chains in
    order of x, each ``n - 1`` gates folding x's literals from input 0 on
    (input k's literal is gate k where x's bit k is 1, ``n + k`` where it
    is 0; at n = 1 a minterm is its literal).  Then, output by output, the
    OR chain of the minterms of the rows where the output is 1, in order of
    x; an output that is 1 on one row is that row's minterm, and one that
    is never 1 reads a single CONST 0, placed where the first such output's
    chain would start.  At n = 0 the circuit is the constant's
    (``constant_circuit``).

    The outputs and size are counted from the table (``_table_layout``).  A
    circuit that carries its table (n <= 16) is marked table-born: its gates
    are written from the table when first read (``_write_table_gates``),
    and each :class:`Half` below it is sized from the table too
    (``_table_size``), so a change to the layout must change these rules.
    A wider circuit's gates are written here."""
    _check_shape(n, m)
    if len(table) != 1 << n:
        raise DimensionError(f"table must have {1 << n} entries")
    if min(table) < 0 or max(table) >= 1 << m:
        v = next(v for v in table if not 0 <= v < 1 << m)
        raise DimensionError(f"table entry {v} does not fit in {m} bits")
    top = 1 << m  # a 1 above the word's m bits: bin() then keeps its zeros
    words = "".join([bin(v | top)[3:] for v in table])
    if n == 0:
        c = constant_circuit(0, words, name)
    else:
        outs, layout_size = _table_layout(words, n, m)
        c = _derived(n, None, outs, name)
        vars(c)["_size"] = layout_size
    if n <= _TABLE_MAX_INPUTS:  # its points, and the mark that sizes its halves from them (``_masks``)
        vars(c).update(_points=words, _table_born=True)
    else:
        _write_table_gates(c, words)
    return c


def _table_layout(words: str, n: int, m: int) -> tuple[tuple[int, ...], int]:
    """The outputs and ``size`` of ``circuit_from_table``'s layout for the
    table ``words`` on n >= 1 inputs, counted from each output's column with
    no gate made: 2n + 2^n(n - 1) INPUT, NOT and minterm AND gates, then an
    OR chain of ones_j - 1 gates for each output j that is 1 on ones_j > 1
    rows, and the one CONST 0 in the place of the first output never 1.
    The size is
    n + m + 2n + 3(2^n(n - 1) + sum over j of max(ones_j - 1, 0))."""
    steps = n - 1
    top = 2 * n + (steps << n)  # where the next OR chain or the CONST 0 starts
    outs: list[int] = []
    ors, zero = 0, None
    for j in range(m):
        column = words[j::m]
        ones = column.count("1")
        if ones > 1:
            ors += ones - 1
            top += ones - 1
            outs.append(top - 1)
        elif ones:  # the row's minterm, or at n = 1 its literal
            x = column.index("1")
            outs.append(2 * n + (x + 1) * steps - 1 if steps else 1 - x)
        else:
            if zero is None:
                zero, top = top, top + 1
            outs.append(zero)
    layout_size = n + m + GATE_COST[OP_NOT] * n + GATE_COST[OP_AND] * ((steps << n) + ors)
    return tuple(outs), layout_size


def _write_table_gates(c: Circuit, words: str) -> tuple[Gate, ...]:
    """Write and return the gates of ``c``, made by ``circuit_from_table``
    from the table ``words``, in its layout; their size must be the one
    ``_table_layout`` gave ``c``, or :class:`SizingError`.  The gates of
    each chain step and of each OR chain are made in one pass over their
    operand columns."""
    n, m = c.n, c.m
    points, steps = 1 << n, n - 1
    prefix = 2 * n + points * steps  # the INPUT, NOT and minterm AND gates

    def literal(k: int) -> list[int]:
        """Input k's literal in each minterm, x = 0 up: runs of its NOT (x's
        bit k is 0) then of the input, 2^(n-1-k) long, 2^k times over."""
        block = points >> k + 1
        return ([n + k] * block + [k] * block) * (1 << k)

    held = _TABLE_BORN.get(n)
    if held is not None:
        gates = list(held.gates[:prefix])
    else:
        # Step i of every minterm's chain is made in one pass and placed at
        # stride n - 1; it reads step i - 1, or input 0's literal at step 0.
        gates = [*map(INPUT, range(n)), *map(NOT, range(n)), *repeat(None, points * steps)]
        for i in range(steps):
            prev = range(2 * n + i - 1, prefix, steps) if i else literal(0)
            gates[2 * n + i :: steps] = map(_new, repeat(Gate), zip(repeat(OP_AND), prev, literal(i + 1)))
    # One int per minterm, its chain's last step, shared by every OR that
    # reads it; at n = 1 a minterm is its literal.
    minterm = list(range(2 * n + steps - 1, prefix, steps)) if steps else literal(0)
    zero = False  # whether the one CONST 0 is made
    for j in range(m):
        rows = list(compress(minterm, map("1".__eq__, words[j::m])))
        if rows:
            base = len(gates)
            acc = chain(rows[:1], range(base, base + len(rows) - 2))
            gates += map(_new, repeat(Gate), zip(repeat(OP_OR), acc, islice(rows, 1, None)))
        elif not zero:
            gates.append(CONST(0))
            zero = True
    gates = tuple(gates)
    written = _gate_cost(gates) + n + m
    if written != c._size:
        raise SizingError(f"table-born circuit {c.name} has size {written}, its table gives {c._size}")
    vars(c)["gates"] = gates
    _TABLE_BORN[n] = c
    return gates


def _table_words(c: Circuit) -> str | None:
    """The truth table ``c`` holds already, seeded or built, as one string of
    output words in input order; None when it holds none."""
    points = vars(c).get("_points")
    return points if type(points) is str else None


def random_circuit(rng, n: int, m: int, gate_count: int, name: str = "r") -> Circuit:
    """A random circuit whose gate list starts with all inputs, followed by
    ``gate_count`` random logic/constant gates; outputs reference random gates.
    A gate with no earlier gate to read is a constant."""
    _check_shape(n, m)
    if n == 0 and gate_count == 0:
        raise DimensionError("a circuit with no inputs needs a gate to name as an output")
    gates: list[Gate] = [INPUT(k) for k in range(n)]
    for _ in range(gate_count):
        top = len(gates)
        op = rng.choice((OP_NOT, OP_AND, OP_AND, OP_OR, OP_OR, OP_CONST)) if top else OP_CONST
        if op == OP_CONST:
            gates.append(CONST(rng.randrange(2)))
        elif op == OP_NOT:
            gates.append(NOT(rng.randrange(top)))
        else:
            gates.append(_new(Gate, (op, rng.randrange(top), rng.randrange(top))))
    outs = tuple(rng.randrange(len(gates)) for _ in range(m))
    return _derived(n, tuple(gates), outs, name)


def successor_table(c: Circuit) -> list[str]:
    """Truth table of an n-to-m circuit as bit strings indexed by input value:
    each output's mask is written out once, and the columns are read across."""
    width = 1 << c.n
    columns = [format(mask, f"0{width}b")[::-1] for mask in output_masks(c)]
    return list(map("".join, zip(*columns)))


# --- netlist text format ---------------------------------------------------
#
#   circuit <name> inputs=<n> outputs=<m>
#   g<id> = INPUT <k> | CONST <0|1> | NOT g<a> | AND g<a> g<b> | OR g<a> g<b>
#   output <j> = g<id>
#
# Lines end at "\n" only; '#' starts a comment; gate ids must be defined
# before they are referenced.  Whitespace is any other ``str.isspace``
# character ("\r" too; what ``str.split`` and the ``re`` class ``\s`` take),
# and a number is 1 to 18 ASCII digits.  After its op a gate row holds
# exactly its arguments: INPUT one number, CONST one digit 0 or 1, NOT one
# reference g<number>, AND and OR two references with whitespace between
# them; the op may run into its first argument (``ANDg0 g0``).  A block is
# read at once: one match over its rows joined by "\n", then one loop over
# the fields that builds the gates and makes every check.  Only a block that
# fails is read again row by row, in order, to name its first offending row:
# a repeated id at its second definition, a reference to a gate defined on
# its own row or below as forward.  Within a row the checks run in the order
# duplicate id, unknown op, bad arguments, input range, reference.

#: Largest input or output count a netlist header may declare, and so the
#: writer may emit.  Desk-scale work stays well below it: exhaustive scans
#: stop at 16 inputs, and the widest reduction target (sink-of-DAG to
#: iteration at n = m = 12) reads 24.
MAX_NETLIST_WIDTH = 64

#: Missing output indices named in the error message before it summarises.
_MISSING_SHOWN = 8

#: A number in a netlist: ASCII digits, few enough for ``int`` to accept.
_NUMBER = "[0-9]{1,18}"
_SPACE = r"[^\S\n]"  # whitespace inside a line
_HEADER_RE = re.compile(rf"^circuit\s+(\S+)\s+inputs=({_NUMBER})\s+outputs=({_NUMBER})$")
#: A sound body row: a gate's id and INPUT's number, CONST's bit, NOT's
#: reference or AND/OR's op and references; or an output's index and gate.
_ROW_RE = re.compile(
    rf"^(?:g({_NUMBER}){_SPACE}*={_SPACE}*(?:INPUT{_SPACE}*({_NUMBER})|CONST{_SPACE}*([01])"
    rf"|NOT{_SPACE}*g({_NUMBER})|(AND|OR){_SPACE}*g({_NUMBER}){_SPACE}+g({_NUMBER}))"
    rf"|output{_SPACE}+({_NUMBER}){_SPACE}*={_SPACE}*g({_NUMBER}))$",
    re.M,
)
_GATE_OPS = {"INPUT": OP_INPUT, "CONST": OP_CONST, "NOT": OP_NOT, "AND": OP_AND, "OR": OP_OR}
_COMMENT_RE = re.compile("#[^\n]*")
#: A gate row's id, op and arguments, however malformed, to name its error.
_GATE_RE = re.compile(rf"^g({_NUMBER})\s*=\s*([A-Z]+)\s*(.*)$")


def emit_netlist(c: Circuit) -> str:
    if max(c.n, c.m) > MAX_NETLIST_WIDTH:
        raise DimensionError(f"inputs={c.n} outputs={c.m} exceeds the netlist width limit of {MAX_NETLIST_WIDTH}")
    lines = [f"circuit {c.name} inputs={c.n} outputs={c.m}"]
    for idx, (op, a, b) in enumerate(c.gates):
        if op == OP_INPUT:
            lines.append(f"g{idx} = INPUT {a}")
        elif op == OP_CONST:
            lines.append(f"g{idx} = CONST {a}")
        elif op == OP_NOT:
            lines.append(f"g{idx} = NOT g{a}")
        else:
            lines.append(f"g{idx} = {op.upper()} g{a} g{b}")
    for j, r in enumerate(c.outputs):
        lines.append(f"output {j} = g{r}")
    return "\n".join(lines) + "\n"


def _stripped_lines(text: str) -> list[str]:
    """The text's lines, split at "\n" only, cut at '#' and stripped."""
    if "#" in text:
        text = _COMMENT_RE.sub("", text)
    return list(map(str.strip, text.split("\n")))


def parse_netlist(text: str) -> Circuit:
    rows = _stripped_lines(text)
    first = next(compress(count(), rows), None)
    if first is None:
        raise NetlistError("empty netlist", 1)
    return _read_rows(rows[first:], first + 1)


def _read_rows(rows: list[str], lineno: int) -> Circuit:
    """The circuit on a block's stripped lines, its header first and on line
    ``lineno``; empty lines are skipped."""
    header = rows[0]
    match = _HEADER_RE.match(header)
    if not match:
        raise NetlistError(f"bad circuit header: {header!r}", lineno)
    name, n, m = match.group(1), int(match.group(2)), int(match.group(3))
    if n > MAX_NETLIST_WIDTH or m > MAX_NETLIST_WIDTH:
        raise NetlistError(
            f"declared width inputs={n} outputs={m} exceeds the limit of {MAX_NETLIST_WIDTH}", lineno
        )
    if m == 0:
        raise NetlistError("a circuit needs at least one output", lineno)

    body = list(filter(None, islice(rows, 1, None)))
    fields = _ROW_RE.findall("\n".join(body))
    if len(fields) == len(body):  # every row has a sound form
        gates: list[Gate] = []
        index_of: dict[int, int] = {}
        outputs: list[int | None] = [None] * m
        for gid, k, bit, ref, op, a, b, j, out in fields:
            if gid:
                gid = int(gid)
                if gid in index_of:
                    break
                if k:
                    k = int(k)
                    if k >= n:
                        break
                    gate = (OP_INPUT, k, 0)
                elif bit:
                    gate = (OP_CONST, int(bit), 0)
                elif ref:
                    a = index_of.get(int(ref))
                    if a is None:
                        break
                    gate = (OP_NOT, a, 0)
                else:
                    a, b = index_of.get(int(a)), index_of.get(int(b))
                    if a is None or b is None:
                        break
                    gate = (_GATE_OPS[op], a, b)
                index_of[gid] = len(gates)
                gates.append(_new(Gate, gate))
            else:
                j, out = int(j), index_of.get(int(out))
                if j >= m or outputs[j] is not None or out is None:
                    break
                outputs[j] = out
        else:
            if None not in outputs:
                return _derived(n, tuple(gates), tuple(outputs), name)
    raise _row_error(rows, lineno, n, m)


def _row_error(rows: list[str], lineno: int, n: int, m: int) -> NetlistError:
    """The error of a block ``_read_rows`` refused: at its first offending
    row in file order, or, when every row is sound, its missing outputs at
    its last row."""
    numbered = [(line, row) for line, row in enumerate(rows, lineno) if row]
    defined: set[int] = set()
    outputs: set[int] = set()

    def unresolved(gid: int, pos: int, line: int) -> NetlistError:
        below = any((g := _GATE_RE.match(row)) and int(g[1]) == gid for _, row in numbered[pos:])
        return NetlistError(f"{'forward' if below else 'dangling'} reference g{gid}", line)

    for pos, (line, row) in enumerate(numbered[1:], start=1):
        g, fields = _GATE_RE.match(row), _ROW_RE.match(row)
        if g:
            gid, op = int(g[1]), g[2]
            if gid in defined:
                return NetlistError(f"duplicate gate id g{gid}", line)
            if op not in _GATE_OPS:
                return NetlistError(f"unknown gate op {op!r}", line)
            if fields is None:
                return NetlistError(f"bad {op} arguments: {g[3]!r}", line)
            _, k, _, ref, _, a, b, _, _ = fields.groups()
            if k and int(k) >= n:
                return NetlistError(f"input index {int(k)} out of range", line)
            for used in map(int, filter(None, (ref, a, b))):
                if used not in defined:
                    return unresolved(used, pos, line)
            defined.add(gid)
        elif fields:
            j, gid = map(int, fields.groups()[-2:])
            if j >= m:
                return NetlistError(f"output index {j} out of range", line)
            if j in outputs:
                return NetlistError(f"duplicate output {j}", line)
            if gid not in defined:
                return unresolved(gid, pos, line)
            outputs.add(j)
        else:
            return NetlistError(f"unparseable line: {row!r}", line)

    missing = [j for j in range(m) if j not in outputs]
    shown = ", ".join(map(str, missing[:_MISSING_SHOWN]))
    more = ", ..." if len(missing) > _MISSING_SHOWN else ""
    return NetlistError(f"missing output declarations: {len(missing)} of {m} ({shown}{more})", numbered[-1][0])
