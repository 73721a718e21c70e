"""Boolean circuit IR: evaluation, layering, restrictions, and netlist text I/O.

A circuit is an immutable list of gates in topological order over the
alphabet {INPUT, CONST, NOT, AND, OR}; operands are integer references to
strictly earlier gates, and the output list names the gates whose values
form the output word.  A gate is a plain ``(op, a, b)`` tuple (:class:`Gate`):
the same value is a circuit's gate and a builder's hash key, a restriction
works on ``(op, a, b)`` entries, and per-gate loops unpack it.

A circuit that is read again and again (an iteration or sink-of-DAG
instance's) is read through :func:`point`, which caches its points on the
circuit beside its size: up to 16 inputs, the truth table built at the
first point; wider, each point evaluated once.  A reader that takes each
point once or twice (end-of-line checks and walks) calls :func:`evaluate`.

Circuits are validated once, at the boundary: ``Circuit(...)`` checks what
it is given (``parse_netlist``, user code and tests go through it).  Every
circuit the toolkit derives from valid ones (restrictions, builders,
synthesisers) is built by :func:`_derived` without the check, and a test
runs each such producer and validates its output again.

The canonical size measure counts logic gates (NOT/AND/OR) plus wires,
where every input bit contributes one port wire, every gate operand one
wire, and every output one wire.  Under this measure removing an input
(with constant propagation) and removing an output (with dead-gate
elimination) both strictly shrink the circuit.  One pass implements both
restrictions, alone or together (``restrict_half``, the iteration query).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

from .bits import check_bits, to_int
from .errors import DimensionError, NetlistError, RestrictionError

OP_INPUT = "input"
OP_CONST = "const"
OP_NOT = "not"
OP_AND = "and"
OP_OR = "or"

_BINARY = (OP_AND, OP_OR)
_LOGIC = (OP_NOT, OP_AND, OP_OR)

#: What a logic gate adds to ``size``: itself plus its operand wires.
GATE_COST = {OP_NOT: 2, OP_AND: 3, OP_OR: 3}

#: Widest circuit that reads its points from a truth table, and the bound of
#: the exhaustive scans.  A wider circuit's table would hold 2^n words.
_TABLE_MAX_INPUTS = 16


class Gate(NamedTuple):
    """One gate, the tuple ``(op, a, b)``: ``a`` is the input index for
    INPUT, the bit for CONST, and the first operand reference otherwise.
    ``b`` is the second operand for AND/OR and 0 elsewhere, so equal gates
    are equal tuples."""

    op: str
    a: int = 0
    b: int = 0


def INPUT(k: int) -> Gate:
    return Gate(OP_INPUT, k)


def CONST(bit: int) -> Gate:
    return Gate(OP_CONST, bit)


def NOT(a: int) -> Gate:
    return Gate(OP_NOT, a)


def AND(a: int, b: int) -> Gate:
    return Gate(OP_AND, a, b)


def OR(a: int, b: int) -> Gate:
    return Gate(OP_OR, a, b)


@dataclass(frozen=True)
class Circuit:
    n: int
    m: int
    gates: tuple[Gate, ...]
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
        return sum(GATE_COST.get(op, 0) for op, _, _ in self.gates) + self.n + len(self.outputs)

    @cached_property
    def _points(self) -> str | dict[str, str]:
        """What :func:`point` reads: the truth table as one string of the
        output words in input order, or for a wider circuit a memo of the
        points evaluated so far."""
        return "".join(successor_table(self)) if self.n <= _TABLE_MAX_INPUTS else {}


def _check_shape(n: int, m: int) -> None:
    if n < 0 or m < 1:
        raise DimensionError(f"bad circuit shape n={n}, m={m}")


def _derived(n: int, gates: tuple[Gate, ...], outputs: tuple[int, ...], name: str) -> Circuit:
    """A circuit derived from valid ones, built without ``Circuit``'s check:
    its producer keeps the rules by construction (a test runs each producer
    and validates the result)."""
    c = object.__new__(Circuit)
    c.__dict__.update(n=n, m=len(outputs), gates=gates, outputs=outputs, name=name)
    return c


def size(c: Circuit) -> int:
    """Logic gate count plus wire count (input ports, operands, outputs),
    computed once per circuit and cached on it."""
    return c._size


def layers(c: Circuit) -> tuple[int, ...]:
    """Layer of each gate: inputs and constants sit at layer 1, and every
    other gate strictly above all of its operands.  Single linear pass."""
    out = []
    for op, a, b in c.gates:
        if op == OP_INPUT or op == OP_CONST:
            out.append(1)
        elif op == OP_NOT:
            out.append(out[a] + 1)
        else:
            out.append(max(out[a], out[b]) + 1)
    return tuple(out)


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
    """The output word of ``c`` at ``x``, read from the points cached on ``c``."""
    points = c._points
    if type(points) is str:
        m = c.m
        start = to_int(check_bits(x, c.n)) * m
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
    held at any time.  A circuit of up to 16 inputs reads its points from
    this table, built at its first point and cached on it (see ``point``).
    """
    gates = c.gates
    last = _last_readers(gates, c.outputs)
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


def eval_table(c: Circuit) -> list[int]:
    """Truth table as integers: entry x is the m-bit output on input value x."""
    return [int(word, 2) for word in successor_table(c)]


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


def _fold(c: Circuit, k0: int, bit: int) -> tuple[list[tuple[str, int, int]], list[int]]:
    """Fix input ``k0`` (0-based) to ``bit`` and fold the constant forward:
    a folded value ``v >= 0`` names an entry of the result, ``v < 0`` is the
    constant ``~v``.  INPUT and CONST entries are final gates; a logic entry
    is its bare ``(op, a, b)`` over the entries, which the sweep renumbers
    into a gate, so each surviving gate is made once.  Outputs that fold to
    a constant get one CONST gate per value, in output order.  Returns the
    entries and the output references into them."""
    made: list[tuple[str, int, int]] = []
    vals: list[int] = []
    emit, put = made.append, vals.append
    for g in c.gates:
        op, a, b = g
        if op == OP_INPUT:
            if a == k0:
                put(~bit)
                continue
            if a > k0:
                g = INPUT(a - 1)
        elif op == OP_NOT:
            a = vals[a]
            if a < 0:
                put(~(~a ^ 1))
                continue
            g = (op, a, 0)
        elif op != OP_CONST:
            a, b = vals[a], vals[b]
            if a < 0 or b < 0:
                short = ~0 if op == OP_AND else ~1
                put(short if short in (a, b) else (b if a < 0 else a))
                continue
            g = (op, a, b)
        put(len(made))
        emit(g)
    const_refs: dict[int, int] = {}
    outs = []
    for r in c.outputs:
        v = vals[r]
        if v < 0:
            if v not in const_refs:
                const_refs[v] = len(made)
                emit(CONST(~v))
            v = const_refs[v]
        outs.append(v)
    return made, outs


def _last_readers(gates: Sequence[tuple[str, int, int]], refs: Sequence[int]) -> list[int]:
    """For each gate, the index of the last gate that reads it, ``len(gates)``
    for one of the gates ``refs``, and -1 for a gate that feeds none of them
    (dead).  One backward pass."""
    last = [-1] * len(gates)
    for r in refs:
        last[r] = len(gates)
    for idx in range(len(gates) - 1, -1, -1):
        if last[idx] >= 0:
            op, a, b = gates[idx]
            if op == OP_NOT:
                if last[a] < 0:
                    last[a] = idx
            elif op in _BINARY:
                if last[a] < 0:
                    last[a] = idx
                if last[b] < 0:
                    last[b] = idx
    return last


def _restrict(c: Circuit, fixed: tuple[int, int] | None, keep: Sequence[int] | None) -> Circuit:
    """The one restriction pass behind ``restrict_input``, ``project_outputs``
    and ``restrict_half``: fold input ``fixed = (k0, bit)`` forward (None
    fixes nothing), then mark backward what feeds the kept outputs
    (``keep``, 0-based and in order; None keeps every output and sweeps
    nothing).  Input gates always survive; a logic gate is made for each
    survivor, with its operands renumbered.  Folding before sweeping makes
    the result gate for gate the two-step one."""
    if fixed is None:
        made, outs, n = c.gates, c.outputs, c.n
    else:
        made, outs = _fold(c, *fixed)
        n = c.n - 1
    if keep is None:
        refs = outs
        last = [0] * len(made)  # keeps every gate
    else:
        refs = [outs[j] for j in keep]
        last = _last_readers(made, refs)
    remap = [0] * len(made)
    gates: list[Gate] = []
    for idx, g in enumerate(made):
        op, a, b = g
        if last[idx] >= 0 or op == OP_INPUT:
            if op == OP_NOT:
                g = Gate(op, remap[a])
            elif op in _BINARY:
                g = Gate(op, remap[a], remap[b])
            remap[idx] = len(gates)
            gates.append(g)
    return _derived(n, tuple(gates), tuple(remap[r] for r in refs), c.name)


def restrict_input(c: Circuit, position: int, bit: int) -> Circuit:
    """Remove input ``position`` (1-based) by fixing it to ``bit`` and
    propagating the constant forward.

    NOT of a constant folds to a constant; AND/OR with two constant operands
    fold; AND with a constant 0 (OR with 1) short-circuits to the constant;
    AND with a constant 1 (OR with 0) passes the other operand through.
    Constants surviving to an output are materialised as CONST gates.
    """
    _check_fix(c, position, bit)
    return _restrict(c, (position - 1, bit), None)


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
    return _restrict(c, None, keep)


def projected_size(c: Circuit, keep: Sequence[int]) -> int:
    """``size(project_outputs(c, keep))`` from a liveness pass alone, without
    building the circuit."""
    last = _last_readers(c.gates, [c.outputs[j] for j in keep])
    cost = sum(GATE_COST.get(op, 0) for (op, _, _), reader in zip(c.gates, last) if reader >= 0)
    return cost + c.n + len(keep)


def restrict_output(c: Circuit, position: int) -> Circuit:
    """Remove output ``position`` (1-based) and delete the gates that fed
    only the removed output."""
    _check_drop(c, position)
    keep = [j for j in range(c.m) if j != position - 1]
    return project_outputs(c, keep)


def restrict_half(c: Circuit, bit: int) -> Circuit:
    """The half of ``c`` whose leading bit is ``bit``: input 1 fixed to
    ``bit`` and output 1 dropped, in one pass.  Gate for gate equal to
    ``restrict_output(restrict_input(c, 1, bit), 1)``; the constant is
    folded (output 1's CONST gate included) before the dead gates are swept."""
    _check_fix(c, 1, bit)
    _check_drop(c, 1)
    return _restrict(c, (0, bit), range(1, c.m))


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
    m-bit output for input value x) as a shared-minterm multiplexer."""
    _check_shape(n, m)
    if len(table) != 1 << n:
        raise DimensionError(f"table must have {1 << n} entries")
    for v in table:
        if not 0 <= v < 1 << m:
            raise DimensionError(f"table entry {v} does not fit in {m} bits")
    if n == 0:
        return constant_circuit(0, format(table[0], f"0{m}b"), name)
    gates: list[Gate] = [INPUT(k) for k in range(n)]
    neg = []
    for k in range(n):
        gates.append(NOT(k))
        neg.append(len(gates) - 1)
    minterm = []
    for x in range(1 << n):
        lits = [(k if (x >> (n - 1 - k)) & 1 else neg[k]) for k in range(n)]
        acc = lits[0]
        for lit in lits[1:]:
            gates.append(AND(acc, lit))
            acc = len(gates) - 1
        minterm.append(acc)
    outs = []
    zero_ref = None
    for j in range(m):
        rows = [x for x in range(1 << n) if (table[x] >> (m - 1 - j)) & 1]
        if not rows:
            if zero_ref is None:
                gates.append(CONST(0))
                zero_ref = len(gates) - 1
            outs.append(zero_ref)
            continue
        acc = minterm[rows[0]]
        for x in rows[1:]:
            gates.append(OR(acc, minterm[x]))
            acc = len(gates) - 1
        outs.append(acc)
    return _derived(n, tuple(gates), tuple(outs), name)


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
            gates.append(Gate(op, rng.randrange(top), rng.randrange(top)))
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
# Lines are independent; '#' starts a comment; gate ids must be defined
# before they are referenced.

#: Largest input or output count a netlist header may declare.  Desk-scale
#: work stays well below it: exhaustive scans stop at 16 inputs, and the
#: widest reduction target (sink-of-DAG to iteration at n = m = 12) reads 24.
MAX_NETLIST_WIDTH = 64

#: Missing output indices named in the error message before it summarises.
_MISSING_SHOWN = 8

#: A number in a netlist: ASCII digits, few enough for ``int`` to accept.
_NUMBER = "[0-9]{1,18}"
_NUMBER_RE = re.compile(_NUMBER)
_HEADER_RE = re.compile(rf"^circuit\s+(\S+)\s+inputs=({_NUMBER})\s+outputs=({_NUMBER})$")
_GATE_RE = re.compile(rf"^g({_NUMBER})\s*=\s*([A-Z]+)\s*(.*)$")
_OUTPUT_RE = re.compile(rf"^output\s+({_NUMBER})\s*=\s*g({_NUMBER})$")


def emit_netlist(c: Circuit) -> str:
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


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_netlist(text: str, first_line: int = 1) -> Circuit:
    rows: list[tuple[int, str]] = []
    for offset, raw in enumerate(text.splitlines()):
        stripped = _strip(raw)
        if stripped:
            rows.append((first_line + offset, stripped))
    if not rows:
        raise NetlistError("empty netlist", first_line)
    lineno, header = rows[0]
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

    declared: dict[int, int] = {}
    for pos, (lineno, row) in enumerate(rows[1:], start=1):
        g = _GATE_RE.match(row)
        if g:
            gid = int(g.group(1))
            if gid in declared:
                raise NetlistError(f"duplicate gate id g{gid}", lineno)
            declared[gid] = pos

    gates: list[Gate] = []
    index_of: dict[int, int] = {}
    outputs: dict[int, int] = {}

    def resolve(gid: int, pos: int, lineno: int) -> int:
        if gid not in declared:
            raise NetlistError(f"dangling reference g{gid}", lineno)
        if declared[gid] >= pos:
            raise NetlistError(f"forward reference g{gid}", lineno)
        return index_of[gid]

    for pos, (lineno, row) in enumerate(rows[1:], start=1):
        g = _GATE_RE.match(row)
        if g:
            gid, op, rest = int(g.group(1)), g.group(2), g.group(3).strip()
            args = rest.split()
            if op == "INPUT":
                if len(args) != 1 or not _NUMBER_RE.fullmatch(args[0]):
                    raise NetlistError(f"bad INPUT arguments: {rest!r}", lineno)
                k = int(args[0])
                if not 0 <= k < n:
                    raise NetlistError(f"input index {k} out of range", lineno)
                gate = INPUT(k)
            elif op == "CONST":
                if len(args) != 1 or args[0] not in ("0", "1"):
                    raise NetlistError(f"bad CONST arguments: {rest!r}", lineno)
                gate = CONST(int(args[0]))
            elif op in ("NOT", "AND", "OR"):
                want = 1 if op == "NOT" else 2
                if len(args) != want or not all(a.startswith("g") and _NUMBER_RE.fullmatch(a[1:]) for a in args):
                    raise NetlistError(f"bad {op} arguments: {rest!r}", lineno)
                refs = [resolve(int(a[1:]), pos, lineno) for a in args]
                gate = NOT(refs[0]) if op == "NOT" else Gate(op.lower(), refs[0], refs[1])
            else:
                raise NetlistError(f"unknown gate op {op!r}", lineno)
            index_of[gid] = len(gates)
            gates.append(gate)
            continue
        o = _OUTPUT_RE.match(row)
        if o:
            j, gid = int(o.group(1)), int(o.group(2))
            if not 0 <= j < m:
                raise NetlistError(f"output index {j} out of range", lineno)
            if j in outputs:
                raise NetlistError(f"duplicate output {j}", lineno)
            outputs[j] = resolve(gid, pos, lineno)
            continue
        raise NetlistError(f"unparseable line: {row!r}", lineno)

    missing = [j for j in range(m) if j not in outputs]
    if missing:
        shown = ", ".join(map(str, missing[:_MISSING_SHOWN]))
        more = ", ..." if len(missing) > _MISSING_SHOWN else ""
        raise NetlistError(
            f"missing output declarations: {len(missing)} of {m} ({shown}{more})", rows[-1][0]
        )
    return Circuit(n, m, tuple(gates), tuple(outputs[j] for j in range(m)), name=name)
