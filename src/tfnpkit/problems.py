"""Instance types, well-formedness checks, and solution verifiers.

Five circuit-backed search problems are represented by three types, plus
the procedure-backed verifiable-line instance.  The with-source kinds are
the same types as iteration and sink-of-DAG with ``source`` set; with
``source`` None the walk starts at the all-zero word.  All verifiers are
total predicates; shape violations raise, semantic failures return False.

A sink-of-DAG root is one circuit, ``pair``, on n inputs: its outputs are
the n successor bits, then the valuation bits, so one evaluation reads
both, and it is measured once, with the shared input ports counted once.
Or it is a procedure root (:meth:`SodInstance.from_procedure`), with no
circuit: the state-graph compiler emits one, and the sink-of-DAG
self-reduction solves it in ``circuit-dsr`` mode.

Iteration and sink-of-DAG circuits are read through ``circuit.point``, which
caches the points on the circuit, so every instance on one circuit object
shares them.  Only root instances read a circuit or a procedure; the
verifiers and the self-reductions read through ``IterInstance.step`` and
``SodInstance.step_and_value``, which trust their words: the constructors,
``verify_solution`` and ``with_source`` check the words that enter, and the
query constructors take sources derived from them.  End-of-line circuits are
never self-reduced: a check or a walk reads each point once or twice, so
they are evaluated and nothing is cached on them.  A self-reduction query
reads its root and is sized with no circuit built, as :class:`IterInstance`
and :class:`SodInstance` describe.

The sink-finding solution predicate requires a candidate to move
(``succ(v) != v``) in both disjuncts: a point that is already a fixed point
of the successor is never accepted.  Fixed points trivially satisfy the
stalled-valuation clause, and admitting them would let the frozen points
introduced by the halving constructions masquerade as solutions.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, count, repeat
from typing import Callable

from .bits import check_bits, from_int, zeros
from .circuit import MAX_NETLIST_WIDTH, Circuit, Half, drop_sizes, emit_netlist, evaluate, point
from .circuit import _derived, _read_rows, _stripped_lines, circuit_from_table, restrict_output
from .circuit import size as circuit_gate_size
from .errors import DimensionError, NetlistError, SizingError
from .gadgets import Net, combine_pair, freeze_stage, redirect_zero_outputs, split_pair

KIND_ITER = "iter"
KIND_ITER_WS = "iter-with-source"
KIND_SOD = "sink-of-dag"
KIND_SOD_WS = "sink-of-dag-with-source"
KIND_EOL = "end-of-line"


def _require_square(c: Circuit, role: str) -> None:
    if c.n != c.m:
        raise DimensionError(f"{role} circuit must have n == m, got {c.n} -> {c.m}")


def _checked_source(source: str | None, n: int) -> str | None:
    return None if source is None else check_bits(source, n)


_NO_CIRCUIT = "a procedure-rooted sink-of-DAG instance has no circuit to size or write"


class _Procedural:
    """The net of a procedure root and its queries: no circuit, so stages keep it and its size is refused."""

    def drop(self, *stage) -> "_Procedural":
        return self

    freeze = drop

    @property
    def size(self) -> int:
        raise SizingError(_NO_CIRCUIT)


_PROCEDURAL = _Procedural()


class IterInstance:
    """Iteration instance; the walk starts at ``source``, or at the all-zero
    word when ``source`` is None.

    Only a root reads its circuit.  A half (:meth:`half`) is a
    :class:`~tfnpkit.circuit.Half`, made for its one side at each call:
    below a table-born root it is sized from the root's table and holds no
    parent, and its rows are written from its masks only when read; below
    any other root it is sized from the rows of one fold.  An instance
    keeps nothing of the halves it has made.  A half's circuit is built
    only when ``succ`` is read (by the envelope writer, equality or a test;
    :meth:`redirected` embeds the half's rows).  It reads the root it was
    cut from, with its fixed prefix prepended, and a :meth:`redirected`
    instance reads the instance it redirects."""

    source: str | None = None
    _half: Half | None = None  # a root holds ``succ`` itself

    def __init__(self, succ: Circuit, source: str | None = None):
        _require_square(succ, "successor")
        self.succ = succ
        self.source = _checked_source(source, succ.n)

    @cached_property
    def succ(self) -> Circuit:
        """The successor circuit: a root's as given, a half's swept on first
        read, held here only, and shared by copies made after that."""
        return self._half.circuit

    @property
    def _form(self) -> Circuit | Half:
        """What is sized and halved: the root's circuit, or the half."""
        half = self._half
        return self.succ if half is None else half

    @property
    def n(self) -> int:
        return self._form.n

    @property
    def size(self) -> int:
        """Circuit size of ``succ``; a half's is read without building it."""
        half = self._half
        return circuit_gate_size(self.succ) if half is None else half.size

    def with_source(self, source: str | None) -> "IterInstance":
        """The same successor with another source: the copy shares the
        circuit or half and the points."""
        other = IterInstance.__new__(IterInstance)
        vars(other).update(vars(self), source=_checked_source(source, self.n))
        return other

    def half(self, bit: int, source: str | None = None) -> "IterInstance":
        """Query on the half-space whose leading bit is ``bit`` (input 1
        fixed, output 1 dropped), measured from its rows exactly as the
        two-step restriction, which it builds only when ``succ`` is read.
        Each call makes that one side anew (``Half(form, bit)``), and
        nothing of it is kept here.  A source-free query is the half with
        ``source`` None.  Its points are this instance's, read with the bit
        prepended; its source is not checked again."""
        read, prefix = self._read
        inst = IterInstance.__new__(IterInstance)
        vars(inst).update(_half=Half(self._form, bit), source=source, _read=(read, prefix + str(bit)))
        return inst

    def redirected(self) -> "IterInstance":
        """Source-free instance that steps the all-zero word to this
        instance's source and every other word as this instance does (the
        target of ``drop_source``).  Its circuit wraps this one in
        ``redirect_zero_outputs``, which embeds a half's live rows
        directly, so a half's own circuit is not built; below a table-born
        root those rows are written from the half's masks, with no fold.
        Its points are read through this one."""
        source = self.source
        if source is None:
            raise DimensionError("only an instance with a source can be redirected")
        target = IterInstance(redirect_zero_outputs(self._form, source, name="succ"))
        zero, step = zeros(self.n), self.step
        vars(target)["_read"] = (lambda x: source if x == zero else step(x), "")
        return target

    @cached_property
    def _read(self) -> tuple[Callable[[str], str], str]:
        """How points are read: a reader of the root's words, and the prefix
        this instance's point is given there."""
        return partial(point, self.succ), ""

    def step(self, x: str) -> str:
        """Successor word at ``x``, read from the root; ``x`` is an n-bit
        word checked where it entered or read from a circuit."""
        read, prefix = self._read
        if not prefix:
            return read(x)
        return read(prefix + x)[len(prefix) :]

    def __eq__(self, other) -> bool:
        if not isinstance(other, IterInstance):
            return NotImplemented
        return (self.succ, self.source) == (other.succ, other.source)

    def __hash__(self) -> int:
        return hash((self.succ, self.source))

    def __repr__(self) -> str:
        return f"IterInstance(n={self.n}, source={self.source!r})"


class SodInstance:
    """Sink-of-DAG instance, stored as the one circuit ``pair``; the walk
    starts at ``source``, or at the all-zero word when ``source`` is None.
    ``succ`` and ``valuation`` are views: the circuits the instance was
    built from, or slices of the pair cut on first read.

    A self-reduction query (:meth:`dropped`, :meth:`frozen`) is composed
    over its parent: it reads a point by applying its stage to the parent's
    memo, so only the root circuit is read, and its ``pair`` is built
    (``restrict_output``/``freeze_stage``) only when read.  The root and its
    chain of drops are raw: they keep the root's duplicate and dead gates,
    and one backward pass over the root sizes the drop of every depth.  A
    query below a freeze is sized from its :class:`~tfnpkit.gadgets.Net`;
    the first freeze below a raw instance starts from the root's net,
    hash-consed once and dropped along the chain.

    A procedure root (:meth:`from_procedure`) holds a successor oracle and a
    valuation callable as ``succ`` and ``valuation``, and its own
    ``step_and_value`` calls them.  It and its queries carry the
    :class:`_Procedural` net: their ``pair``, size and file form raise
    :class:`SizingError`, and each equals only itself."""

    def __init__(self, succ: Circuit, valuation: Circuit, source: str | None = None):
        self._init(combine_pair(succ, valuation), source)
        vars(self)["_views"] = (succ, valuation)

    @classmethod
    def from_pair(cls, pair: Circuit, source: str | None = None) -> "SodInstance":
        return cls.__new__(cls)._init(pair, source)

    @classmethod
    def from_procedure(cls, succ: "SuccessorOracle", valuation: Callable[[str], int], value_bits: int,
                       source: str) -> "SodInstance":
        """A procedure root: ``succ`` steps n-bit words, ``valuation`` maps
        each to a value below ``2**value_bits``, and there is no circuit."""
        inst = cls.__new__(cls)._set(succ.n, value_bits, check_bits(source, succ.n), None, None, _PROCEDURAL)
        vars(inst).update(succ=succ, valuation=valuation, step_and_value=lambda x: (succ(x), valuation(x)))
        return inst

    def _init(self, pair: Circuit, source: str | None) -> "SodInstance":
        vars(self)["pair"] = pair
        return self._set(pair.n, pair.m - pair.n, _checked_source(source, pair.n), None, None, None)

    def _set(self, n: int, value_bits: int, source, parent, freeze, net) -> "SodInstance":
        """Set the fields: for a query, the parent and its stage (``freeze``
        is ``(frozen_below, redirect_to)``, or None for a drop), and the net
        that measures it unless it is raw.  A query's source is not checked."""
        if value_bits < 1:
            raise DimensionError("pair circuit needs at least one valuation output")
        self.n, self.value_bits = n, value_bits
        self.source = source
        self._parent, self._freeze, self._net = parent, freeze, net
        self._steps: dict[str, tuple[str, int]] = {}  # a query's points, shared by its copies
        return self

    def dropped(self, source: str | None = None) -> "SodInstance":
        """Query without the valuation's most significant bit."""
        net = None if self._net is None else self._net.drop(self.n)
        return SodInstance.__new__(SodInstance)._set(self.n, self.value_bits - 1, source, self, None, net)

    def frozen(self, frozen_below: int, *, redirect_to: str | None = None, source: str | None = None) -> "SodInstance":
        """Query of the valuation-halving step (see ``freeze_stage``)."""
        net = (self._raw_net() if self._net is None else self._net).freeze(frozen_below, redirect_to)
        vars(self).pop("_hashed", None)  # a raw instance's net: a depth-first run needs it no more
        freeze = (frozen_below, redirect_to)
        return SodInstance.__new__(SodInstance)._set(self.n, self.value_bits - 1, source, self, freeze, net)

    def _raw_net(self) -> Net:
        """The net of a raw instance, made on first need and kept until its
        first freeze: the root hash-conses its pair (``Net.of``), a raw drop
        drops its parent's net.  So the root is hash-consed once if every
        drop is asked before its parent's freeze, as ``dsr_sod`` does; a
        later drop, or a ``with_source`` copy made before the net, does it again."""
        net = vars(self).get("_hashed")
        if net is None:
            net = Net.of(self.pair) if self._parent is None else self._parent._raw_net().drop(self.n)
            vars(self)["_hashed"] = net
        return net

    def with_source(self, source: str | None) -> "SodInstance":
        other = copy.copy(self)  # shares the circuit, parent, net, points and any views already cut
        other.source = _checked_source(source, self.n)
        return other

    @property
    def size(self) -> int:
        """Circuit size of ``pair``, without building a query's circuit: a
        composed query's is read from its net, a raw one's from the root."""
        return self._drop_sizes[0] if self._net is None else self._net.size

    @cached_property
    def _drop_sizes(self) -> list[int]:
        """A raw instance's size, then its chain of drops': the root's come
        from one pass (``drop_sizes``), a raw drop's are its parent's after the first."""
        parent = self._parent
        return drop_sizes(self.pair, self.n + 1) if parent is None else parent._drop_sizes[1:]

    @cached_property
    def pair(self) -> Circuit:
        """The circuit; a query's is built from its parent's on first read.
        A procedure root has none."""
        if self._parent is None:
            raise SizingError(_NO_CIRCUIT)
        parent = self._parent.pair
        if self._freeze is None:
            return restrict_output(parent, self.n + 1)
        frozen_below, redirect_to = self._freeze
        return freeze_stage(parent, frozen_below, redirect_to=redirect_to)

    @cached_property
    def _views(self) -> tuple[Circuit, Circuit]:
        return split_pair(self.pair, self.value_bits)

    @cached_property
    def succ(self) -> Circuit:
        return self._views[0]

    @cached_property
    def valuation(self) -> Circuit:
        return self._views[1]

    def step_and_value(self, x: str) -> tuple[str, int]:
        """Successor word and valuation at ``x``: a root reads its circuit's
        points, a query applies its stage to its parent's, once per point;
        ``x`` is an n-bit word checked where it entered or read from a circuit."""
        if self._parent is None:
            word = point(self.pair, x)
            return word[: self.n], int(word[self.n :], 2)
        hit = self._steps.get(x)
        if hit is None:
            hit = self._steps[x] = self._staged(x)
        return hit

    def _staged(self, x: str) -> tuple[str, int]:
        parent = self._parent
        if self._freeze is None:
            step, value = parent.step_and_value(x)
        else:
            frozen_below, redirect_to = self._freeze
            if redirect_to is not None and x == zeros(self.n):
                x = redirect_to
            step, value = parent.step_and_value(x)
            if value < frozen_below:
                step = x
        return step, value & ((1 << self.value_bits) - 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SodInstance):
            return NotImplemented
        if self._net is _PROCEDURAL or other._net is _PROCEDURAL:
            return self is other
        return (self.pair, self.source) == (other.pair, other.source)

    def __hash__(self) -> int:
        return id(self) if self._net is _PROCEDURAL else hash((self.pair, self.source))

    def __repr__(self) -> str:
        return f"SodInstance(n={self.n}, value_bits={self.value_bits}, source={self.source!r})"


# The with-source kinds are the same types with ``source`` set; bench/workloads.py builds with these names.
IterWithSourceInstance = IterInstance
SodWithSourceInstance = SodInstance


@dataclass(frozen=True)
class EolInstance:
    succ: Circuit
    pred: Circuit

    def __post_init__(self):
        _require_square(self.succ, "successor")
        _require_square(self.pred, "predecessor")
        if self.pred.n != self.succ.n:
            raise DimensionError("successor and predecessor must share the input width")

    @property
    def n(self) -> int:
        return self.succ.n


@dataclass(frozen=True, eq=False)
class SuccessorOracle:
    """Deterministic, length-preserving next-step map, backed either by a
    circuit or by an arbitrary procedure."""

    fn: Callable[[str], str]
    n: int

    def __call__(self, x: str) -> str:
        return check_bits(self.fn(check_bits(x, self.n)), self.n)


@dataclass(frozen=True, eq=False)
class SvlInstance:
    """Verifiable-line instance.  The promise that the verifier accepts
    exactly the i-th point of the successor walk cannot be checked in
    general; a desk-scale checker lives in :mod:`tfnpkit.svl`."""

    succ: SuccessorOracle
    source: str
    target: int
    verifier: Callable[[str, int], bool]

    def __post_init__(self):
        check_bits(self.source, self.succ.n)
        if self.target < 1:
            raise DimensionError("target index must be at least 1")

    @property
    def n(self) -> int:
        return self.succ.n


# PEP 604 unions: ``typing.Union`` caches its arguments, which would keep
# the classes of every re-imported copy of this module alive.
CircuitInstance = IterInstance | SodInstance | EolInstance
ProblemInstance = CircuitInstance | SvlInstance


def kind_of(inst: ProblemInstance) -> str:
    if isinstance(inst, IterInstance):
        return KIND_ITER if inst.source is None else KIND_ITER_WS
    if isinstance(inst, SodInstance):
        return KIND_SOD if inst.source is None else KIND_SOD_WS
    if isinstance(inst, EolInstance):
        return KIND_EOL
    return type(inst).__name__


def source_bits(inst: CircuitInstance) -> int:
    """Length of the explicit source; 0 for an instance that starts at 0^n."""
    source = getattr(inst, "source", None)
    return 0 if source is None else len(source)


def io_dims(inst: CircuitInstance) -> tuple[int, int]:
    """Total input and output bit counts, reading a multi-circuit instance
    as one circuit with shared inputs and concatenated outputs."""
    if isinstance(inst, SodInstance):
        return inst.n, inst.n + inst.value_bits
    if isinstance(inst, EolInstance):
        return inst.succ.n, inst.succ.m + inst.pred.m
    return inst.n, inst.n


def circuit_size(inst: CircuitInstance) -> int:
    """Circuit size; a sink-of-DAG instance is measured once, as its pair."""
    if isinstance(inst, EolInstance):
        return circuit_gate_size(inst.succ) + circuit_gate_size(inst.pred)
    return inst.size


def instance_size(inst: CircuitInstance) -> int:
    """Encoded size stand-in: circuit size plus any explicit source bits."""
    return circuit_size(inst) + source_bits(inst)


def well_formed(inst: ProblemInstance) -> bool:
    """Does the instance satisfy the guarantee its kind promises?"""
    if isinstance(inst, (IterInstance, SodInstance)):
        start = zeros(inst.n) if inst.source is None else inst.source
        if isinstance(inst, IterInstance):
            return inst.step(start) > start
        return inst.step_and_value(start)[0] != start
    if isinstance(inst, EolInstance):
        start = zeros(inst.succ.n)
        return evaluate(inst.succ, start) != start and evaluate(inst.pred, start) == start
    if isinstance(inst, SvlInstance):
        return bool(inst.verifier(inst.source, 1))
    raise TypeError(f"unknown instance type: {type(inst).__name__}")


def eol_solution(cand: str, fwd: str, back: str) -> bool:
    """End-of-line predicate on a point and its successor and predecessor:
    a source other than the all-zero word, or a sink."""
    is_source = fwd != cand and back == cand and cand != zeros(len(cand))
    is_sink = back != cand and fwd == cand
    return is_source or is_sink


def verify_solution(inst: ProblemInstance, cand: str) -> bool:
    """Does ``cand`` satisfy the solution predicate?  Costs at most two
    successor evaluations (plus two valuation reads where applicable)."""
    check_bits(cand, inst.n)
    if isinstance(inst, IterInstance):
        step = inst.step(cand)
        if step <= cand:
            return False
        return inst.step(step) <= step
    if isinstance(inst, SodInstance):
        step, value = inst.step_and_value(cand)
        if step == cand:
            return False
        after, step_value = inst.step_and_value(step)
        return after == step or step_value <= value
    if isinstance(inst, EolInstance):
        return eol_solution(cand, evaluate(inst.succ, cand), evaluate(inst.pred, cand))
    if isinstance(inst, SvlInstance):
        return bool(inst.verifier(cand, inst.target))
    raise TypeError(f"unknown instance type: {type(inst).__name__}")


# --- instance envelope files -------------------------------------------------
#
#   problem <kind>
#   circuit succ inputs=<n> outputs=<n>
#   ...
#   circuit valuation inputs=<n> outputs=<m>   (sink-of-dag kinds)
#   circuit pred inputs=<n> outputs=<n>        (end-of-line)
#   source=<bits>                              (with-source kinds)

_ROLES = {
    KIND_ITER: ("succ",),
    KIND_ITER_WS: ("succ",),
    KIND_SOD: ("succ", "valuation"),
    KIND_SOD_WS: ("succ", "valuation"),
    KIND_EOL: ("succ", "pred"),
}
_WITH_SOURCE = (KIND_ITER_WS, KIND_SOD_WS)
#: Lines that open a block or stand alone; others belong to a circuit block.
#: Each mark is seven characters, and ``problem`` and ``circuit`` need
#: whitespace after them, as the header pattern does.
_MARKS = ("problem", "circuit", "source=")


def emit_instance(inst: CircuitInstance) -> str:
    kind = kind_of(inst)
    if kind not in _ROLES:
        raise TypeError(f"{type(inst).__name__} has no file form")
    if getattr(inst, "_net", None) is _PROCEDURAL:
        raise SizingError(_NO_CIRCUIT)
    parts = [f"problem {kind}"]
    for role in _ROLES[kind]:
        c: Circuit = getattr(inst, role)
        parts.append(emit_netlist(_derived(c.n, c.gates, c.outputs, role)).rstrip("\n"))
    if kind in _WITH_SOURCE:
        parts.append(f"source={inst.source}")
    return "\n".join(parts) + "\n"


def parse_instance(text: str) -> CircuitInstance:
    rows = _stripped_lines(text)
    opened = compress(count(), map(str.startswith, rows, repeat(_MARKS)))
    marks = [at for at in opened if rows[at][6] == "=" or rows[at][7:8].isspace()]
    kind: str | None = None
    blocks: dict[str, Circuit] = {}
    starts: dict[str, int] = {}
    source: str | None = None
    source_line: int | None = None

    def refuse_stray(lo: int, hi: int) -> None:
        for at in compress(range(lo, hi), rows[lo:hi]):
            raise NetlistError(f"unexpected line outside circuit block: {rows[at]!r}", at + 1)

    refuse_stray(0, marks[0] if marks else len(rows))
    for at, end in zip(marks, [*marks[1:], len(rows)]):
        row, lineno = rows[at], at + 1
        if row.startswith("circuit"):
            c = _read_rows(rows[at:end], lineno)
            if c.name in blocks:
                raise NetlistError(f"duplicate circuit block {c.name!r}", lineno)
            blocks[c.name] = c
            starts[c.name] = lineno
            continue
        if row.startswith("problem"):
            if kind is not None:
                raise NetlistError("duplicate problem line", lineno)
            kind = row.split(None, 1)[1].strip()
            if kind not in _ROLES:
                raise NetlistError(f"unknown problem kind {kind!r}", lineno)
        else:
            if source is not None:
                raise NetlistError("duplicate source line", lineno)
            source = row[len("source=") :].strip()
            source_line = lineno
        refuse_stray(at + 1, end)

    if kind is None:
        raise NetlistError("missing problem line")
    roles = _ROLES[kind]
    missing = [r for r in roles if r not in blocks]
    if missing:
        raise NetlistError(f"missing circuit block(s): {missing}")
    extra = [name for name in blocks if name not in roles]
    if extra:
        raise NetlistError(f"unexpected circuit block(s): {extra}")
    if kind in _WITH_SOURCE:
        if source is None:
            raise NetlistError("missing source line")
    elif source is not None:
        raise NetlistError(f"problem kind {kind} takes no source")

    try:
        if kind in (KIND_ITER, KIND_ITER_WS):
            return IterInstance(blocks["succ"], source)
        if kind in (KIND_SOD, KIND_SOD_WS):
            return SodInstance(blocks["succ"], blocks["valuation"], source)
        return EolInstance(blocks["succ"], blocks["pred"])
    except DimensionError as exc:
        raise NetlistError(str(exc), _misfit_line(blocks, starts, source_line)) from None


def _misfit_line(blocks: dict[str, Circuit], starts: dict[str, int], source_line: int | None) -> int | None:
    """Line of the first block, in file order, whose shape does not fit the
    successor's n inputs (only a valuation may have a different output
    count); the source line when every block fits."""
    n = blocks["succ"].n
    for role, c in blocks.items():
        if c.n != n or (role != "valuation" and c.m != n):
            return starts[role]
    return source_line


# --- random generation -------------------------------------------------------


def random_instance(kind: str, n: int, rng, m: int | None = None) -> CircuitInstance:
    """Random well-formed instance built from a random function table via the
    multiplexer synthesiser; rejection-samples until the guarantee holds.
    ``m``, the sink-of-DAG valuation width (default ``n``), is refused
    outside 1..``MAX_NETLIST_WIDTH``, as a netlist is."""
    if n < 1 or n > 12:
        raise DimensionError("random instances support 1 <= n <= 12")
    m = n if m is None else m
    if m < 1 or m > MAX_NETLIST_WIDTH:
        raise DimensionError(f"random instances support 1 <= m <= {MAX_NETLIST_WIDTH}")
    space = 1 << n
    if kind in (KIND_ITER, KIND_ITER_WS, KIND_SOD, KIND_SOD_WS):
        iteration, with_source = kind in (KIND_ITER, KIND_ITER_WS), kind in _WITH_SOURCE
        while True:  # each draw is checked before synthesis: a rejected one builds no circuit
            table = [rng.randrange(space) for _ in range(space)]
            values = None if iteration else [rng.randrange(1 << m) for _ in range(space)]
            starts = [x for x in (range(space) if with_source else (0,))
                      if (table[x] > x if iteration else table[x] != x)]
            if starts:
                break
        source = from_int(rng.choice(starts), n) if with_source else None
        succ = circuit_from_table(table, n, n, name="succ")
        if iteration:
            return IterInstance(succ, source)
        return SodInstance(succ, circuit_from_table(values, n, m, name="valuation"), source)
    if kind == KIND_EOL:
        # a consistent directed path from the all-zero node; everything else
        # is an isolated fixed point of both circuits
        nodes = list(range(1, space))
        rng.shuffle(nodes)
        length = rng.randrange(1, space)
        path = [0] + nodes[:length]
        succ_table = list(range(space))
        pred_table = list(range(space))
        for a, b in zip(path, path[1:]):
            succ_table[a] = b
            pred_table[b] = a
        return EolInstance(
            circuit_from_table(succ_table, n, n, name="succ"),
            circuit_from_table(pred_table, n, n, name="pred"),
        )
    raise ValueError(f"unknown problem kind {kind!r}")
