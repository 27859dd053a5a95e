"""Gate-level circuit IR and its two text renderings.

A circuit is an ordered sequence of instructions, `Seq` spans and `Loop`
blocks acting on ``num_qubits`` qubit lines.  Bit 0 is the rightmost column
in pictures and the least significant bit of simulator basis indices.  Two
renderings are supported:

* the *english* format -- one line per operation, fully spelling out the
  opcode, target(s), controls and angles (always degrees);
* the *picture* format -- one line per operation, ASCII art with a column
  every 4 characters per qubit, ``|`` wordlines, ``-`` wires and ``+`` where
  a wire crosses an idle wordline.

The english format is the authoritative, parseable representation; pictures
are write-only.  ``LOOP k REPS: n`` / ``NEXT k`` lines bracket a block to be
repeated ``n`` times.  The label ``k`` equals the 0-based line index of its
LOOP line.  In memory a block is a `Loop` node, and a `Seq` is a span written
inline with no markers; either holds gates, Seqs and Loops, and the body of a
Circuit is that tree.  Labels exist only in the text: `render` works them out
from where each node is placed, and the parser checks them and drops them.
A node may be placed many times: the emitters build V(beta) once per beta,
and the reflections and G(t, d) once per step t, so G(t, d+1) is a Seq of
five references; the parser gives every distinct span of gate lines
between LOOP/NEXT lines one shared Seq.  The Circuit checks, the op count,
`dagger` and `with_control` handle each node once per object, in
O(distinct nodes); `render` adds one step per placement of a node, to write
its LOOP/NEXT labels, not one per line.  (The simulator reads a Seq that
nests through, wherever it is placed.)

Multiplexor lines (``MP_Y``) rotate their target about y by one of ``2**k``
angles, selected by ``k`` *named* controls: the control named ``j`` supplies
bit ``j`` of the index into the angle list.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence


class Opcode(Enum):
    SIGX = "SIGX"
    SIGY = "SIGY"
    SIGZ = "SIGZ"
    HAD2 = "HAD2"
    ROTX = "ROTX"
    ROTY = "ROTY"
    ROTZ = "ROTZ"
    ROTN = "ROTN"
    PHAS = "PHAS"
    P0PH = "P0PH"
    P1PH = "P1PH"
    SWAP = "SWAP"
    MP_Y = "MP_Y"

    __hash__ = object.__hash__  # members are singletons; Enum's own hash runs in Python


_ANGLE_COUNT = {
    Opcode.ROTX: 1, Opcode.ROTY: 1, Opcode.ROTZ: 1, Opcode.ROTN: 3,
    Opcode.PHAS: 1, Opcode.P0PH: 1, Opcode.P1PH: 1,
}
# Every other gate has one target, written after AT; SWAP's two are bare.
_TARGET_COUNT = {Opcode.SWAP: 2, Opcode.PHAS: 0}
# Loop trees are walked recursively; generated circuits nest one LOOP deep.
_MAX_LOOP_DEPTH = 100


class ParseError(ValueError):
    """Raised on a malformed english file; carries line number and token."""

    def __init__(self, message: str, line: int | None = None, token: str | None = None):
        self.line = line
        self.token = token
        where = f"line {line}: " if line is not None else ""
        what = f" (offending token {token!r})" if token is not None else ""
        super().__init__(f"{where}{message}{what}")


def format_number(x: float) -> str:
    """Shortest decimal that round-trips a finite 64-bit float: its repr,
    which always holds a "." or an "e", so is never a bare integer."""
    if x == 0.0:
        return "0.0"
    return repr(float(x))


@dataclass(frozen=True, slots=True)
class Control:
    """A plain control: fire only when qubit `bit` is 1 (on) or 0 (off)."""

    bit: int
    on: bool = True

    def __post_init__(self):
        if self.bit < 0:
            raise ValueError(f"control bit must be non-negative, got {self.bit}")

    @property
    def token(self) -> str:
        return f"{self.bit}{'T' if self.on else 'F'}"


@dataclass(frozen=True, slots=True)
class MuxControl:
    """A multiplexor control at `bit`, feeding bit `name` of the angle index."""

    bit: int
    name: int

    def __post_init__(self):
        if self.bit < 0 or self.name < 0:
            raise ValueError(f"mux control bit/name must be non-negative, got {self}")

    @property
    def token(self) -> str:
        return f"{self.bit}({self.name}"


@dataclass(frozen=True)
class Instruction:
    """One line of a circuit.

    Controls and mux controls are kept sorted by descending bit position
    (the print order); SWAP targets are kept (high, low).  Angles are in
    degrees.  ``operand_bits`` (targets, then control bits, then mux-control
    bits) is derived, not compared.
    """

    opcode: Opcode
    targets: tuple[int, ...] = ()
    controls: tuple[Control, ...] = ()
    mux_controls: tuple[MuxControl, ...] = ()
    angles_deg: tuple[float, ...] = ()
    operand_bits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(
            self, "controls", tuple(sorted(self.controls, key=lambda c: -c.bit)))
        object.__setattr__(
            self, "mux_controls", tuple(sorted(self.mux_controls, key=lambda m: -m.bit)))
        object.__setattr__(self, "angles_deg", tuple(float(a) for a in self.angles_deg))
        if self.opcode is Opcode.SWAP:
            object.__setattr__(self, "targets", tuple(sorted(self.targets, reverse=True)))
        object.__setattr__(self, "operand_bits", self.targets
                           + tuple(c.bit for c in self.controls)
                           + tuple(m.bit for m in self.mux_controls))
        _check_instruction(self)

    def with_angles(self, angles_deg: Iterable[float]) -> Instruction:
        """This instruction with new angles; only their count and finiteness
        are checked, and the operand fields are shared."""
        derived = self._derived(self.controls, tuple(map(float, angles_deg)), self.operand_bits)
        _check_angles(derived)
        return derived

    def with_controls(self, control: Control) -> Instruction:
        """This instruction with one more plain control, put in its sorted
        place; only a collision with the operand bits is checked, and the
        other fields are shared."""
        if control.bit in self.operand_bits:
            raise ValueError(
                f"control bit {control.bit} collides with {self.opcode.value} operands")
        at = sum(c.bit > control.bit for c in self.controls)
        split = len(self.targets) + at
        return self._derived(self.controls[:at] + (control,) + self.controls[at:], self.angles_deg,
                             self.operand_bits[:split] + (control.bit,) + self.operand_bits[split:])

    def _derived(self, controls: tuple, angles_deg: tuple, operand_bits: tuple) -> Instruction:
        """An unchecked copy with these three fields and the other three
        shared, each set in the constructor's order."""
        derived = object.__new__(Instruction)
        set_field = object.__setattr__
        set_field(derived, "opcode", self.opcode)
        set_field(derived, "targets", self.targets)
        set_field(derived, "controls", controls)
        set_field(derived, "mux_controls", self.mux_controls)
        set_field(derived, "angles_deg", angles_deg)
        set_field(derived, "operand_bits", operand_bits)
        return derived


def _check_instruction(ins: Instruction) -> None:
    op = ins.opcode
    want_targets = _TARGET_COUNT.get(op, 1)
    if len(ins.targets) != want_targets:
        raise ValueError(f"{op.value} needs {want_targets} target(s), got {len(ins.targets)}")
    if op is Opcode.SWAP and ins.targets[0] == ins.targets[1]:
        raise ValueError("SWAP targets must be distinct")
    if any(t < 0 for t in ins.targets):
        raise ValueError("target bits must be non-negative")

    if op is Opcode.MP_Y:
        k = len(ins.mux_controls)
        if k < 1:
            raise ValueError("MP_Y needs at least one mux control")
        names = sorted(m.name for m in ins.mux_controls)
        if names != list(range(k)):
            raise ValueError(f"MP_Y control names must be 0..{k - 1}, got {names}")
    elif ins.mux_controls:
        raise ValueError(f"{op.value} takes no mux controls")
    _check_angles(ins)
    bits = list(ins.operand_bits)
    if len(set(bits)) != len(bits):
        raise ValueError(f"{op.value} operand bits must be distinct, got {bits}")


def _check_angles(ins: Instruction) -> None:
    op, got, k = ins.opcode, len(ins.angles_deg), len(ins.mux_controls)
    want = 1 << k if k else _ANGLE_COUNT.get(op, 0)  # only MP_Y has mux controls
    if got != want:
        raise ValueError(f"MP_Y with {k} controls needs {want} angles, got {got}" if k
                         else f"{op.value} needs {want} angle(s), got {got}")
    if not all(map(math.isfinite, ins.angles_deg)):
        raise ValueError(f"{op.value} angles must be finite")


# --- instruction constructors -------------------------------------------------

def sigx(target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.SIGX, (target,), tuple(controls))


def sigy(target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.SIGY, (target,), tuple(controls))


def sigz(target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.SIGZ, (target,), tuple(controls))


def had2(target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.HAD2, (target,), tuple(controls))


def rotx(angle_deg: float, target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.ROTX, (target,), tuple(controls), angles_deg=(angle_deg,))


def roty(angle_deg: float, target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.ROTY, (target,), tuple(controls), angles_deg=(angle_deg,))


def rotz(angle_deg: float, target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.ROTZ, (target,), tuple(controls), angles_deg=(angle_deg,))


def rotn(ax: float, ay: float, az: float, target: int,
         controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.ROTN, (target,), tuple(controls), angles_deg=(ax, ay, az))


def phas(angle_deg: float, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.PHAS, (), tuple(controls), angles_deg=(angle_deg,))


def p0ph(angle_deg: float, target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.P0PH, (target,), tuple(controls), angles_deg=(angle_deg,))


def p1ph(angle_deg: float, target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.P1PH, (target,), tuple(controls), angles_deg=(angle_deg,))


def swap(a: int, b: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.SWAP, (a, b), tuple(controls))


def mp_y(target: int, mux_controls: Iterable[MuxControl], angles_deg: Iterable[float],
         controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.MP_Y, (target,), tuple(controls),
                       tuple(mux_controls), tuple(angles_deg))


# --- circuits -------------------------------------------------------------------

@dataclass(frozen=True)
class Seq:
    """A span of gates, Seqs and Loops, written inline with no markers.
    ``nests`` (derived, not compared) tells whether it holds Seqs or Loops."""

    body: tuple[Instruction | Seq | Loop, ...] = ()
    nests: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        kinds = set(map(type, self.body))
        if not kinds <= {Instruction, Seq, Loop}:
            raise TypeError("a Seq holds only Instructions, Seqs and Loops")
        object.__setattr__(self, "nests", not kinds <= {Instruction})


@dataclass(frozen=True)
class Loop:
    """A block of gates, Seqs and Loops repeated ``reps`` times; written as
    ``LOOP k REPS: reps`` ... ``NEXT k``."""

    reps: int
    body: tuple[Instruction | Seq | Loop, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        if self.reps < 1:
            raise ValueError(f"LOOP repetitions must be >= 1, got {self.reps}")


@dataclass(frozen=True)
class Circuit:
    """An immutable tree of gates, Seqs and Loops over a fixed number of qubits.

    Construction keeps the body as given and validates every invariant
    (loops nested at most _MAX_LOOP_DEPTH deep, operand bits inside the
    register), so a Circuit in hand is always well-formed and writable.
    An error names the 0-based line of the english file.  ``len`` is that
    file's line count.
    """

    num_qubits: int
    body: tuple[Instruction | Seq | Loop, ...] = ()
    _lines: int = field(init=False, repr=False, compare=False)
    _ops: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.num_qubits
        if n < 1:
            raise ValueError(f"num_qubits must be positive, got {n}")
        object.__setattr__(self, "body", tuple(self.body))
        nodes: dict[int, tuple[int, int, int]] = {}  # id(Seq or Loop) -> (lines, height, ops)
        checked: set[int] = set()  # ids of the gates whose bits are checked
        bad: list[tuple[int, int]] = []  # (line, bit) of the first operand out of range

        def walk(body: tuple, line: int, depth: int) -> tuple[int, int, int]:
            """The line after `body`, which starts at `line` inside `depth`
            loops, its loop height and its op count.  Each Seq and Loop is
            walked once, unless a reuse of it nests too deep, and then again,
            to name the offending line."""
            height = ops = 0
            for node in body:
                if type(node) is Instruction:
                    if id(node) not in checked:
                        checked.add(id(node))
                        if not bad:
                            bad.extend((line, bit) for bit in node.operand_bits if bit >= n)
                    line += 1
                    ops += 1
                    continue
                seen = nodes.get(id(node))
                if seen is None or depth + seen[1] > _MAX_LOOP_DEPTH:
                    if type(node) is Seq and not node.nests:  # gates only: no per-line walk
                        gates = dict(zip(map(id, node.body), node.body))
                        fresh = gates.keys() - checked
                        checked.update(fresh)
                        if not bad and any(b >= n for i in fresh for b in gates[i].operand_bits):
                            bad.append(next((line + at, b) for at, gate in enumerate(node.body)
                                            if id(gate) in fresh
                                            for b in gate.operand_bits if b >= n))
                        seen = len(node.body), 0, len(node.body)
                    elif type(node) is Seq:
                        end, inner, inner_ops = walk(node.body, line, depth)
                        seen = end - line, inner, inner_ops
                    elif depth == _MAX_LOOP_DEPTH:
                        raise ValueError(
                            f"LOOP at line {line} nests deeper than {_MAX_LOOP_DEPTH}")
                    else:
                        end, inner, inner_ops = walk(node.body, line + 1, depth + 1)
                        seen = end + 1 - line, inner + 1, node.reps * inner_ops
                    nodes[id(node)] = seen
                line += seen[0]
                height = max(height, seen[1])
                ops += seen[2]
            return line, height, ops

        lines, _, ops = walk(self.body, 0, 0)
        if bad:
            raise ValueError(f"line {bad[0][0]}: bit {bad[0][1]} out of range for {n} qubit(s)")
        object.__setattr__(self, "_lines", lines)
        object.__setattr__(self, "_ops", ops)

    def __len__(self) -> int:
        return self._lines


def count_elementary_ops(circuit: Circuit) -> int:
    """Operation count with Loop bodies weighted by their repetitions.

    LOOP/NEXT lines themselves are free; nested loops multiply; a
    multiplexor line counts as a single operation.  The Circuit checks count
    it, once per Seq and Loop object.
    """
    return circuit._ops


# --- structural transforms ------------------------------------------------------

def _map_gates(body: Sequence[Instruction | Seq | Loop],
               gate: Callable[[Instruction], Sequence[Instruction]],
               reverse: bool = False) -> tuple[Instruction | Seq | Loop, ...]:
    """The body with each gate replaced by the gates ``gate`` maps it to and
    each Seq and Loop by a new node of its kind, with every body reversed if
    ``reverse``.  Each object is mapped once, so a node or gate shared in the
    input is one shared node or gate in the output."""
    mapped: dict[int, tuple] = {}  # id(input node) -> the nodes it becomes

    def walk(nodes: Sequence) -> tuple:
        out: list = []
        for node in reversed(nodes) if reverse else nodes:
            new = mapped.get(id(node))
            if new is None:
                if type(node) is Instruction:
                    new = tuple(gate(node))
                elif type(node) is Loop:
                    new = Loop(node.reps, walk(node.body)),
                else:
                    new = Seq(walk(node.body)),
                mapped[id(node)] = new
            out += new
        return tuple(out)
    return walk(tuple(body))


def dagger(body: Sequence[Instruction | Seq | Loop]) -> tuple[Instruction | Seq | Loop, ...]:
    """Inverse of a body: reverse order, negate angles; angle-free gates are self-inverse.

    Seqs and Loops keep their kind: a Loop's daggered body repeats the same
    number of times.
    """
    return _map_gates(body, lambda ins: (ins.with_angles([-a for a in ins.angles_deg]),)
                      if ins.angles_deg else (ins,), reverse=True)


def with_control(body: Sequence[Instruction | Seq | Loop],
                 control: Control) -> tuple[Instruction | Seq | Loop, ...]:
    """Attach one extra control to every gate, inside Seqs and Loops too.

    Raises ValueError if the control bit collides with any operand bit.
    """
    return _map_gates(body, lambda ins: (ins.with_controls(control),))


# --- writers --------------------------------------------------------------------

class _Fragment:
    """A Seq or Loop as `render` writes it: its lines (a Loop's LOOP and NEXT
    lines included), its op count, its reps (0 for a Seq), and its parts:
    runs of gate texts, as lists of chunks or joined, and (line offset,
    _Fragment) placements of the Seqs and Loops in it, offsets counted from
    the first line of its body.  `placed` counts where it is written."""

    __slots__ = ("lines", "ops", "reps", "parts", "placed")

    def __init__(self, lines: int, ops: int, reps: int, parts: list):
        self.lines, self.ops, self.reps, self.parts, self.placed = lines, ops, reps, parts, 0


def render(circuit: Circuit,
           write: Callable[..., tuple[str, str, int] | None] | None = None,
           ) -> tuple[int, str, str]:
    """(op count, english text, picture text) of a circuit.

    ``write`` maps a gate and render's frame lookup (a gate's english text
    before and after its angles, and its picture line, built once per
    operand set) to the chunk (english, picture, lines) it is written as, or
    to None for the gate itself; the op count weights the written lines by
    their loops' repetitions.  A LOOP label is the output line index of its
    LOOP line, which its NEXT repeats.

    Each Seq and Loop is rendered once per object, into a _Fragment whose
    labels are line offsets.  A run of gates in a node is joined into one
    text when the copy takes fewer bytes than the list slots it saves, two
    of 8 bytes per chunk and placement: the emitters' blocks, written
    thousands of times, are joined, and a parsed span written a few times
    is spliced in chunk by chunk.  Writing a fragment at a line then only
    formats its LOOP/NEXT lines.  Each gate is written once per object and
    once per value: equal instructions differ at most in the sign of a zero
    angle, which format_number does not print.
    """
    n = circuit.num_qubits
    by_id: dict[int, tuple[str, str, int]] = {}  # id(gate) -> (english, picture, lines)
    by_value: dict[Instruction, tuple[str, str, int]] = {}
    frames: dict[tuple, tuple[str, str, str]] = {}  # operands -> english head, tail; picture
    fragments: dict[int, _Fragment] = {}  # id(Seq or Loop) -> its fragment, children first

    def frame(g: Instruction) -> tuple[str, str, str]:
        key = (g.opcode, g.targets, g.controls, g.mux_controls)
        return frames.get(key) or frames.setdefault(key, (*_english_frame(g), _picture_line(g, n)))

    def first_chunk(gate: Instruction) -> tuple[str, str, int]:
        chunk = by_value.get(gate)
        if chunk is None:
            chunk = write(gate, frame) if write else None
            if chunk is None:
                head, tail, picture = frame(gate)
                chunk = (f"{head}{' '.join(map(format_number, gate.angles_deg))}{tail}\n",
                         picture + "\n", 1)
            by_value[gate] = chunk
        by_id[id(gate)] = chunk
        return chunk

    def fragment(body: tuple, reps: int) -> _Fragment:
        lines = ops = 0
        parts: list[tuple] = []
        english: list[str] = []  # the run of gate chunks since the last node
        pictures: list[str] = []
        for node in body:
            if type(node) is Instruction:
                chunk = by_id.get(id(node)) or first_chunk(node)
                english.append(chunk[0])
                pictures.append(chunk[1])
                lines += chunk[2]
                ops += chunk[2]
                continue
            if english:
                parts.append((english, pictures))
                english, pictures = [], []
            frag = fragments.get(id(node))
            if frag is None:
                frag = fragments[id(node)] = fragment(
                    node.body, node.reps if type(node) is Loop else 0)
            parts.append((lines, frag))
            lines += frag.lines
            ops += frag.ops
        if english:
            parts.append((english, pictures))
        return _Fragment(lines + 2 if reps else lines, ops * max(reps, 1), reps, parts)

    root = fragment(circuit.body, 0)
    root.placed = 1
    for frag in (root, *reversed(fragments.values())):  # each after every node that holds it
        for i, (first, second) in enumerate(frag.parts):
            if type(first) is int:
                second.placed += frag.placed
            elif 16 * frag.placed * (len(first) - 1) > sum(map(len, first + second)):
                frag.parts[i] = "".join(first), "".join(second)

    english: list[str] = []
    pictures: list[str] = []

    def place(parts: list, line: int) -> None:
        for first, second in parts:
            if type(first) is str:
                english.append(first)
                pictures.append(second)
            elif type(first) is list:
                english.extend(first)
                pictures.extend(second)
            elif not second.reps:
                place(second.parts, line + first)
            else:
                label = line + first
                english.append(f"LOOP {label} REPS: {second.reps}\n")
                pictures.append(f"LOOP {label} REPS:{second.reps}\n")
                place(second.parts, label + 1)
                english.append(f"NEXT {label}\n")
                pictures.append(english[-1])

    place(root.parts, 0)
    return root.ops, "".join(english), "".join(pictures)


def write_english(circuit: Circuit) -> str:
    return render(circuit)[1]


def write_picture(circuit: Circuit) -> str:
    return render(circuit)[2]


# --- english format -------------------------------------------------------------

def _english_frame(ins: Instruction) -> tuple[str, str]:
    """The english line of a gate before and after its space-separated angles."""
    op, t = ins.opcode, ins.targets
    ctrls = [c.token for c in ins.controls]
    ifs = f"  IF  {'  '.join(ctrls)}" if ctrls else ""
    if op is Opcode.MP_Y:  # named controls first (descending bit), then plain controls
        operands = " ".join([m.token for m in ins.mux_controls] + ctrls)
        return f"MP_Y  AT  {t[0]} IF {operands} BY ", ""
    if op is Opcode.SWAP:
        return f"SWAP  {t[0]}  {t[1]}{ifs}", ""
    if op is Opcode.PHAS:
        return "PHAS ", ifs[1:]
    if op in (Opcode.P0PH, Opcode.P1PH):
        return f"{op.value} ", f" AT  {t[0]}" + (f" IF {' '.join(ctrls)}" if ctrls else "")
    if not ins.angles_deg:  # SIGX, SIGY, SIGZ, HAD2
        return f"{op.value}  AT  {t[0]}{ifs}", ""
    return f"{op.value}  ", f"  AT  {t[0]}{ifs}"  # ROTX, ROTY, ROTZ, ROTN


def _english_line(ins: Instruction) -> str:
    head, tail = _english_frame(ins)
    return head + " ".join(map(format_number, ins.angles_deg)) + tail


# --- picture format -------------------------------------------------------------

_PICTURE_SYMBOL = {
    Opcode.SIGX: "X", Opcode.SIGY: "Y", Opcode.SIGZ: "Z", Opcode.HAD2: "H",
    Opcode.ROTX: "Rx", Opcode.ROTY: "Ry", Opcode.ROTZ: "Rz", Opcode.ROTN: "R",
    Opcode.P0PH: "0P", Opcode.P1PH: "@P",
}


def _picture_line(ins: Instruction, n: int) -> str:
    op = ins.opcode

    def col(bit: int) -> int:
        return 4 * (n - 1 - bit)

    symbols: list[tuple[int, str]] = [(col(c.bit), "@" if c.on else "0")
                                      for c in ins.controls]
    if op is Opcode.SWAP:
        symbols.append((col(ins.targets[0]), "<"))
        symbols.append((col(ins.targets[1]), ">"))
    elif op is Opcode.PHAS:
        free = [b for b in range(n) if b not in {c.bit for c in ins.controls}]
        if free:
            # Ph ends on its qubit column (leftmost qubit excepted).
            symbols.append((max(col(min(free)) - 1, 0), "Ph"))
        else:
            # every qubit is a control: hang Ph off the right edge
            symbols.append((col(0) + 2, "Ph"))
    elif op is Opcode.MP_Y:
        symbols.append((col(ins.targets[0]), "Ry"))
        symbols.extend((col(m.bit), f"({m.name}") for m in ins.mux_controls)
    else:
        symbols.append((col(ins.targets[0]), _PICTURE_SYMBOL[op]))

    start = min(s for s, _ in symbols)
    end = max(s + len(text) - 1 for s, text in symbols)
    row = [" "] * (max(end, col(0)) + 1)
    for p in range(start, end + 1):
        row[p] = "-"
    for bit in range(n):
        p = col(bit)
        row[p] = "+" if start <= p <= end else "|"
    for s, text in symbols:
        row[s:s + len(text)] = text
    return "".join(row)


# --- english parser -------------------------------------------------------------

_CONTROL_RE = re.compile(r"^(\d+)([TF])$")
_MUX_RE = re.compile(r"^(\d+)\((\d+)$")


def _newlines_only(text: str) -> bool:
    """Whether "\\n" is the only line break in text that str.splitlines knows;
    it also breaks at "\\r", "\\x0b", "\\x0c", "\\x1c"-"\\x1e", "\\x85",
    "\\u2028" and "\\u2029"."""
    return text.isascii() and not any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e")


def _marker_breaks(text: str, end: int) -> list[int]:
    """The offsets of the newline before each line of text[:end] whose first
    token is LOOP or NEXT, ascending; text starts with a newline.  Each token
    is found by its first letter (a memchr), checked in place, and then its
    line is skipped, so no other line is looked at."""
    breaks = []
    for token in ("LOOP", "NEXT"):
        at = text.find(token[0], 0, end)
        while at >= 0:
            after = at + 4
            if (text.startswith(token, at, end) and (after == end or text[after].isspace())):
                start = text.rfind("\n", 0, at)
                if not text[start + 1:at].strip():
                    breaks.append(start)
            at = text.find("\n", at, end)  # a later find on this line is not its first token
            if at >= 0:
                at = text.find(token[0], at, end)
    breaks.sort()
    return breaks


def parse_english(text: str, num_qubits: int | None = None) -> Circuit:
    """Parse english-format text back into a Circuit.

    The lines are those of ``str.splitlines``.  The qubit count is inferred
    as 1 + the highest bit mentioned unless given explicitly.  Loop labels
    must equal their 0-based line index and every LOOP must be closed by a
    NEXT with the same label, properly nested; each LOOP/NEXT pair becomes
    one Loop.  Any malformed line raises ParseError with its line number.

    The text is cut at its LOOP/NEXT lines, and each span of gate lines
    between them becomes a Seq, so a body alternates Seqs and Loops.  Equal
    spans share one Seq, split and parsed once; equal gate lines share one
    Instruction.  Gate lines that differ only in their angles share one
    operand frame (the opcode and every token but the angles), checked once:
    a later line with a known frame parses only its angles, and its
    Instruction shares the first one's operand fields.
    """
    if not _newlines_only(text):
        text = "\n".join(text.splitlines()) + "\n"
    lines_end = len(text) + 1 - text.endswith("\n")
    text = "\n" + text  # the lines are text[1:lines_end].split("\n"), if any
    body: list[Seq | Loop] = []  # the innermost open block
    spans: dict[str, Seq] = {}  # span text -> its Seq
    gates: dict[str, Instruction] = {}  # gate line text -> its parsed instruction
    frames: dict[tuple, Instruction] = {}  # operand frame -> its first instruction
    open_loops: list[tuple[int, int, Loop, list]] = []  # (label, line number, Loop, outer body)
    index, pos = 0, 1  # the 0-based index and the offset of the first line not yet read
    breaks = _marker_breaks(text, lines_end)
    if len(text) > 1:
        breaks.append(lines_end)  # after the last line
    for end in breaks:
        if end >= pos:  # the gate lines text[pos:end]
            span = text[pos:end]
            seq = spans.get(span)
            if seq is None:
                parsed = []
                for line_no, raw in enumerate(span.split("\n"), index + 1):
                    ins = gates.get(raw)
                    if ins is None:
                        ins = gates[raw] = _parse_gate_line(raw, line_no, num_qubits, frames)
                    parsed.append(ins)
                seq = spans[span] = Seq(parsed)
            body.append(seq)
            index += len(seq.body)
        if end == lines_end:
            break
        stop = text.find("\n", end + 1, lines_end)
        if stop < 0:
            stop = lines_end
        tokens = text[end + 1:stop].split()
        pos = stop + 1
        line_no = index + 1
        try:
            if tokens[0] == "LOOP":
                label, reps = _parse_loop(tokens, line_no)
                if label != index:
                    raise ParseError(
                        f"LOOP label {label} must equal its line index {index}", line_no)
                open_loops.append((label, line_no, Loop(reps), body))
                body = []
            else:
                if len(tokens) != 2:
                    raise ParseError("NEXT takes exactly one label", line_no)
                label = _int_token(tokens[1], line_no)
                if not open_loops:
                    raise ParseError("NEXT without an open LOOP", line_no)
                open_label, _, loop, outer = open_loops.pop()
                if label != open_label:
                    raise ParseError(
                        f"NEXT label {label} does not match open LOOP {open_label}", line_no)
                outer.append(Loop(loop.reps, body))
                body = outer
        except ParseError:
            raise
        except ValueError as err:
            raise ParseError(str(err), line_no) from None
        index += 1
    if open_loops:
        label, line_no, _, _ = open_loops[-1]
        raise ParseError(f"LOOP {label} is never closed", line_no)

    if num_qubits is None:
        num_qubits = 1 + max((b for ins in gates.values() for b in ins.operand_bits),
                             default=0)
    try:
        return Circuit(num_qubits, body)
    except ValueError as err:
        raise ParseError(str(err)) from None


def _parse_gate_line(raw: str, line_no: int, num_qubits: int | None,
                     frames: dict[tuple, Instruction]) -> Instruction:
    """The gate on one line.  If ``frames`` holds its operand frame with as
    many angles, it is that instruction with this line's angles; else it is
    parsed in full and its frame is added."""
    tokens = raw.split()
    if not tokens:
        raise ParseError("blank line", line_no)
    try:
        op = Opcode(tokens[0])
    except ValueError:
        raise ParseError("unknown opcode", line_no, tokens[0]) from None
    start, stop = 1, 1 + _ANGLE_COUNT.get(op, 0)  # the angle tokens; an MP_Y's follow BY
    if op is Opcode.MP_Y and "BY" in tokens:
        start, stop = tokens.index("BY") + 1, len(tokens)
    frame, angles = (*tokens[:start], *tokens[stop:]), tokens[start:stop]
    template = frames.get(frame)
    try:
        if template is not None and len(angles) == len(template.angles_deg):
            return template.with_angles([_float_token(tok, line_no) for tok in angles])
        ins = _parse_gate(op, tokens, line_no)
    except ParseError:
        raise
    except ValueError as err:
        raise ParseError(str(err), line_no) from None
    if num_qubits is not None:
        for bit in ins.operand_bits:
            if bit >= num_qubits:
                raise ParseError(f"bit {bit} out of range for {num_qubits} qubit(s)", line_no)
    frames[frame] = ins
    return ins


def _parse_loop(tokens: list[str], line_no: int) -> tuple[int, int]:
    if len(tokens) < 3:
        raise ParseError("malformed LOOP line", line_no)
    label = _int_token(tokens[1], line_no)
    rest = tokens[2:]
    if len(rest) == 1 and rest[0].startswith("REPS:") and len(rest[0]) > 5:
        reps_tok = rest[0][5:]
    elif len(rest) == 2 and rest[0] == "REPS:":
        reps_tok = rest[1]
    else:
        raise ParseError("malformed LOOP line, expected REPS: <n>", line_no)
    return label, _int_token(reps_tok, line_no)


def _parse_gate(op: Opcode, tokens: list[str], line_no: int) -> Instruction:
    """Operands in one order for every gate: the angles, the targets (bare
    for SWAP, after AT otherwise), then ``IF`` controls; an MP_Y line's
    ``IF`` section mixes named and plain controls and ends in ``BY`` angles."""
    pos = 1 + _ANGLE_COUNT.get(op, 0)
    angles = tuple(_float_token(_at(tokens, i, line_no), line_no) for i in range(1, pos))
    width = _TARGET_COUNT.get(op, 1)
    if width == 1:
        _expect(tokens, pos, "AT", line_no)
        pos += 1
    targets = tuple(_int_token(_at(tokens, i, line_no), line_no)
                    for i in range(pos, pos + width))
    pos += width
    controls: tuple[Control, ...] = ()
    mux: list[MuxControl] = []
    if op is Opcode.MP_Y:
        _expect(tokens, pos, "IF", line_no)
        words = tokens[pos + 1:]
        by = words.index("BY") if "BY" in words else len(words)
        plain: list[Control] = []
        for tok in words[:by]:
            m = _MUX_RE.match(tok)
            if m:
                mux.append(MuxControl(int(m.group(1)), int(m.group(2))))
            else:
                plain.append(_control_token(tok, line_no))
        if by == len(words):
            raise ParseError("MP_Y line is missing its BY section", line_no)
        controls = tuple(plain)
        angles = tuple(_float_token(t, line_no) for t in words[by + 1:])
    elif pos < len(tokens):
        _expect(tokens, pos, "IF", line_no)
        if pos + 1 == len(tokens):
            raise ParseError("IF with no controls", line_no)
        controls = tuple(_control_token(t, line_no) for t in tokens[pos + 1:])
    return Instruction(op, targets, controls, tuple(mux), angles)


def _at(tokens: list[str], pos: int, line_no: int) -> str:
    if pos >= len(tokens):
        raise ParseError("unexpected end of line", line_no)
    return tokens[pos]


def _expect(tokens: list[str], pos: int, word: str, line_no: int) -> None:
    if pos >= len(tokens) or tokens[pos] != word:
        got = tokens[pos] if pos < len(tokens) else None
        raise ParseError(f"expected {word!r}", line_no, got)


def _control_token(tok: str, line_no: int) -> Control:
    m = _CONTROL_RE.match(tok)
    if not m:
        raise ParseError("bad control token", line_no, tok)
    return Control(int(m.group(1)), m.group(2) == "T")


def _int_token(tok: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError("expected an integer", line_no, tok) from None


def _float_token(tok: str, line_no: int) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise ParseError("expected a number", line_no, tok) from None
    if not math.isfinite(value):
        raise ParseError("angle must be finite", line_no, tok)
    return value
